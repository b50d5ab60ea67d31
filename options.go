package gesmc

import (
	"fmt"
	"math"
)

// samplerConfig is the resolved configuration of a Sampler.
type samplerConfig struct {
	algorithm    Algorithm
	workers      int
	seed         uint64
	swapsPerEdge float64
	swapsSet     bool // WithSwapsPerEdge called explicitly (default is 10 either way)
	burnIn       int  // supersteps before the first sample; 0 derives from swapsPerEdge
	thinning     int  // supersteps between samples; 0 derives from burn-in
	loopProb     float64
	progress     func(Progress)
	constraints  []Constraint
}

func defaultSamplerConfig() samplerConfig {
	return samplerConfig{
		algorithm:    ParGlobalES,
		workers:      1,
		swapsPerEdge: 10,
	}
}

// burnInSteps resolves the burn-in in supersteps: an explicit WithBurnIn
// wins, otherwise the swaps-per-edge target is converted to
// ceil(2*swapsPerEdge) supersteps, since one superstep attempts ⌊m/2⌋
// switches.
func (c *samplerConfig) burnInSteps() int {
	if c.burnIn > 0 {
		return c.burnIn
	}
	return int(math.Ceil(2 * c.swapsPerEdge))
}

// thinningSteps resolves the thinning in supersteps. Without an explicit
// WithThinning it falls back to the burn-in, making every ensemble
// sample as decorrelated from its predecessor as the first sample is
// from the input graph — conservative but never wrong. AnalyzeMixing
// measures how much smaller the thinning can safely be.
func (c *samplerConfig) thinningSteps() int {
	if c.thinning > 0 {
		return c.thinning
	}
	return c.burnInSteps()
}

// Option configures a Sampler. Options validate eagerly: NewSampler
// returns the first validation error instead of silently correcting the
// value, and every error wraps one of this package's typed sentinels.
type Option func(*samplerConfig) error

// WithAlgorithm selects the switching (or trading) Markov chain.
// Default: ParGlobalES, the paper's headline algorithm.
func WithAlgorithm(a Algorithm) Option {
	return func(c *samplerConfig) error {
		if !a.valid() {
			return fmt.Errorf("%w: Algorithm(%d)", ErrUnknownAlgorithm, int(a))
		}
		c.algorithm = a
		return nil
	}
}

// WithWorkers sets the parallelism degree P of the parallel algorithms
// — ParES, ParGlobalES (undirected, directed, and bipartite targets),
// and the Curveball/GlobalCurveball trade chains —
// and is ignored by the sequential ones. The trade chains produce
// bit-identical results for every worker count. Default: 1.
func WithWorkers(p int) Option {
	return func(c *samplerConfig) error {
		if p < 1 {
			return fmt.Errorf("%w: got %d", ErrInvalidWorkers, p)
		}
		c.workers = p
		return nil
	}
}

// WithSeed fixes the random seed. Runs with equal (target, options) are
// deterministic. Default: 0.
func WithSeed(seed uint64) Option {
	return func(c *samplerConfig) error {
		c.seed = seed
		return nil
	}
}

// WithSwapsPerEdge sets the burn-in length indirectly: enough supersteps
// that the expected number of switch attempts is s per edge. The paper
// (and the empirical literature it cites) recommends 10-30. Default: 10.
// s must be positive and small enough that the ceil(2s) supersteps fit
// in an int.
func WithSwapsPerEdge(s float64) Option {
	return func(c *samplerConfig) error {
		if !(s > 0) || math.Ceil(2*s) >= math.MaxInt {
			return fmt.Errorf("%w: got %v", ErrInvalidSwapsPerEdge, s)
		}
		c.swapsPerEdge = s
		c.swapsSet = true
		return nil
	}
}

// WithBurnIn sets the burn-in before the first sample to an explicit
// superstep count, overriding WithSwapsPerEdge.
func WithBurnIn(supersteps int) Option {
	return func(c *samplerConfig) error {
		if supersteps < 1 {
			return fmt.Errorf("%w: got %d", ErrInvalidBurnIn, supersteps)
		}
		c.burnIn = supersteps
		return nil
	}
}

// WithThinning sets the supersteps between consecutive ensemble samples.
// Default: the burn-in length. AnalyzeMixing's FirstThinningBelow gives
// an empirically safe (usually much smaller) value for a given graph.
func WithThinning(supersteps int) Option {
	return func(c *samplerConfig) error {
		if supersteps < 1 {
			return fmt.Errorf("%w: got %d", ErrInvalidThinning, supersteps)
		}
		c.thinning = supersteps
		return nil
	}
}

// WithLoopProb sets P_L of G-ES-MC (Definition 3). Zero selects the
// package default (1e-6); values outside [0, 1) are rejected — at
// P_L = 1 every global switch has length zero and the chain never moves.
func WithLoopProb(p float64) Option {
	return func(c *samplerConfig) error {
		if !(p >= 0 && p < 1) {
			return fmt.Errorf("%w: got %v", ErrInvalidLoopProb, p)
		}
		c.loopProb = p
		return nil
	}
}

// WithConstraint restricts the sampled state space to the realizations
// satisfying every given constraint — Connected(), ForbiddenEdges(...),
// ProtectedEdges(...), NodeClasses(...). Repeated WithConstraint calls
// accumulate. Validation that needs the target (edge bounds, forbidden
// edges absent, protected edges present, connected start state) runs
// in NewSampler and returns ErrInvalidConstraint,
// ErrUnsupportedConstraint, or ErrConstraintViolated.
//
// Local constraints keep results bit-identical across worker counts;
// with Connected() active the chain is deterministic per (seed,
// workers) and every emitted sample is connected. See the Constraint
// type for the evaluation model and supported algorithms.
func WithConstraint(cs ...Constraint) Option {
	return func(c *samplerConfig) error {
		c.constraints = append(c.constraints, cs...)
		return nil
	}
}

// WithProgress registers a callback invoked after every superstep the
// sampler advances. The callback runs on the sampler's goroutine; keep
// it cheap.
func WithProgress(fn func(Progress)) Option {
	return func(c *samplerConfig) error {
		c.progress = fn
		return nil
	}
}
