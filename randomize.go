package gesmc

import (
	"fmt"
	"time"

	"gesmc/internal/autocorr"
	"gesmc/internal/core"
)

// Algorithm selects a switching implementation (paper names), plus the
// related Curveball trade chains.
type Algorithm int

const (
	// SeqES is the fast sequential ES-MC (hash set + edge array, §5).
	SeqES Algorithm = iota
	// SeqGlobalES is the sequential G-ES-MC (Definition 3).
	SeqGlobalES
	// ParES is the exact parallel ES-MC (Algorithm 2).
	ParES
	// ParGlobalES is the exact parallel G-ES-MC (Algorithm 3) — the
	// paper's headline algorithm and the recommended default.
	ParGlobalES
	// Curveball is the Curveball trade chain (Carstens, Berger & Strona
	// 2016): one superstep performs ⌊n/2⌋ uniformly random trades, each
	// shuffling the disjoint neighborhoods of two nodes. Trades execute
	// as node-disjoint batches through the unified superstep kernel
	// (DESIGN.md §4), so WithWorkers applies and results are invariant
	// under the worker count. Undirected targets only.
	Curveball
	// GlobalCurveball is the Global Curveball chain (Carstens et al.,
	// ESA 2018), the trade analogue of G-ES-MC: one superstep is one
	// global trade pairing every node exactly once, executed as one
	// parallel superstep under the per-batch edge ownership discipline
	// of DESIGN.md §4 (every edge trades at most — and here exactly at
	// most — once per global trade). WithWorkers applies; results are
	// invariant under the worker count. Undirected targets only.
	GlobalCurveball
	// Exact is not a Markov chain: each draw is an exactly uniform,
	// independent sample of the simple graphs with the target's degree
	// sequence, produced by pairing-model generation with rejection
	// (restart on any loop or multi-edge; DESIGN.md §14). There is no
	// burn-in and no thinning — combining Exact with WithBurnIn,
	// WithThinning, or WithSwapsPerEdge returns ErrExactSchedule — and
	// Stats reports restart counts instead of switch acceptance.
	// Bounded-degree undirected targets only: sequences outside the
	// tractable rejection regime return ErrExactUnsupported, and the
	// caller decides the fallback (typically an MCMC chain).
	Exact
)

var algNames = map[Algorithm]core.Algorithm{
	SeqES:       core.AlgSeqES,
	SeqGlobalES: core.AlgSeqGlobalES,
	ParES:       core.AlgParES,
	ParGlobalES: core.AlgParGlobalES,
}

// curveballNames names the trade chains, which have no core counterpart.
var curveballNames = map[Algorithm]string{
	Curveball:       "Curveball",
	GlobalCurveball: "GlobalCurveball",
}

// exactName names the non-chain exact sampler.
const exactName = "Exact"

// valid reports whether a is a defined Algorithm value.
func (a Algorithm) valid() bool {
	if _, ok := algNames[a]; ok {
		return true
	}
	if _, ok := curveballNames[a]; ok {
		return true
	}
	return a == Exact
}

// String returns the paper's name for the implementation.
func (a Algorithm) String() string {
	if ca, ok := algNames[a]; ok {
		return ca.String()
	}
	if name, ok := curveballNames[a]; ok {
		return name
	}
	if a == Exact {
		return exactName
	}
	return "unknown"
}

// ParseAlgorithm maps a name (as printed by String) to an Algorithm.
func ParseAlgorithm(name string) (Algorithm, error) {
	for _, a := range Algorithms() {
		if a.String() == name {
			return a, nil
		}
	}
	return 0, &ParseError{Name: name}
}

// ParseError reports an unknown algorithm name. It wraps
// ErrUnknownAlgorithm for errors.Is classification.
type ParseError struct{ Name string }

func (e *ParseError) Error() string { return "gesmc: unknown algorithm " + e.Name }
func (e *ParseError) Unwrap() error { return ErrUnknownAlgorithm }

// Algorithms lists all implementations in a stable order.
func Algorithms() []Algorithm {
	return []Algorithm{
		SeqES, SeqGlobalES, ParES, ParGlobalES,
		Curveball, GlobalCurveball, Exact,
	}
}

// Stats reports what a randomization run did.
type Stats struct {
	Algorithm  string
	Supersteps int
	// Attempted and Accepted count switches; Accepted/Attempted is the
	// acceptance rate of the chain. (Curveball trades are never
	// rejected, so there the two are equal.)
	Attempted int64
	Accepted  int64
	// Rounds instrumentation of the parallel supersteps (zero for
	// sequential algorithms): average and maximum rounds per superstep,
	// and the fraction of round time spent beyond the first round
	// (Fig. 9's metric).
	AvgRounds          float64
	MaxRounds          int
	LateRoundsFraction float64
	// FirstRoundTime and LaterRoundsTime split the superstep wall time
	// by phase: the first dependency-free round vs. the conflict-
	// resolution rounds after it (zero for sequential algorithms).
	// LateRoundsFraction is LaterRoundsTime over their sum; the raw
	// durations feed the serving tier's phase-latency histograms.
	FirstRoundTime  time.Duration
	LaterRoundsTime time.Duration
	// Constraint instrumentation (zero without WithConstraint):
	// ConstraintVetoes counts switches rejected by the constraint layer
	// (local vetoes, connectivity rejections, and speculative switches
	// rolled back), EscapeAttempts and EscapeMoves the compound
	// k-switch escape proposals and acceptances. Accepted is always net
	// of rollbacks.
	ConstraintVetoes int64
	EscapeAttempts   int64
	EscapeMoves      int64
	// Exact-tier instrumentation (zero for the MCMC chains): Restarts
	// counts configurations rejected for a defect and regenerated from
	// scratch, split into LoopDefects and MultiDefects by first defect
	// found. For Exact, Attempted counts configurations generated and
	// Accepted the draws emitted, so Accepted/Attempted is the
	// empirical acceptance rate exp(-λ-λ²) the regime gate bounds.
	Restarts     int64
	LoopDefects  int64
	MultiDefects int64
	Duration     time.Duration
}

// MixingResult is the output of AnalyzeMixing: NonIndependent[i] is the
// fraction of tracked edges whose time series, thinned to every
// Thinnings[i]-th superstep, still looks first-order-Markov rather than
// independent (§6.1's autocorrelation/BIC diagnostic). Its
// FirstThinningBelow method returns the smallest thinning whose
// fraction is below tau, or 0 if none: the natural input to
// WithThinning when drawing ensembles from graphs of the same scale.
type MixingResult = autocorr.Result

// minMixingSupersteps is the shortest run AnalyzeMixing accepts: the
// schedule's largest thinning, supersteps/8, is then at least 2 and
// every reported thinning has at least 8 transitions.
const minMixingSupersteps = 16

// AnalyzeMixing measures how fast the served chain alg decorrelates
// from g: it compiles the chain over a clone of g (the graph is not
// modified) exactly as NewSampler would, advances it supersteps
// supersteps, and reports the autocorrelation diagnostic over the edges
// of g at thinnings up to supersteps/8. It returns an error wrapping
// ErrInvalidSupersteps for fewer than 16 supersteps, ErrGraphTooSmall
// for graphs with fewer than two edges (whatever the algorithm), and the
// errors NewSampler returns for the same graph and algorithm (for
// example ErrExactUnsupported outside Exact's regime).
func AnalyzeMixing(g *Graph, alg Algorithm, supersteps int, seed uint64) (MixingResult, error) {
	cfg := defaultSamplerConfig()
	cfg.algorithm, cfg.seed = alg, seed
	return analyzeMixing(g, &cfg, supersteps)
}

// analyzeMixing is AnalyzeMixing for a resolved sampler config.
func analyzeMixing(g *Graph, cfg *samplerConfig, supersteps int) (MixingResult, error) {
	if supersteps < minMixingSupersteps {
		return MixingResult{}, fmt.Errorf("%w: AnalyzeMixing needs at least %d, got %d",
			ErrInvalidSupersteps, minMixingSupersteps, supersteps)
	}
	if g == nil || g.g == nil {
		return MixingResult{}, ErrNilTarget
	}
	if g.M() < 2 {
		// Also for Exact, which samples such graphs: a curve over fewer
		// than two edges is constant or undefined.
		return MixingResult{}, fmt.Errorf("%w: m=%d", ErrGraphTooSmall, g.M())
	}
	work := g.Clone()
	eng, err := work.compile(cfg)
	if err != nil {
		return MixingResult{}, err
	}
	defer eng.Close()
	return autocorr.Analyze(eng, work.g.Edges(), supersteps, autocorr.DefaultThinnings(supersteps/8))
}
