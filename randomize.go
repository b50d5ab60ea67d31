package gesmc

import (
	"math"
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
	// NaiveParES is the inexact parallel baseline (§5.1). It does not
	// faithfully implement ES-MC; use it only for performance studies.
	NaiveParES
	// ParES is the exact parallel ES-MC (Algorithm 2).
	ParES
	// ParGlobalES is the exact parallel G-ES-MC (Algorithm 3) — the
	// paper's headline algorithm and the recommended default.
	ParGlobalES
	// AdjListES is the unsorted adjacency-list sequential baseline
	// (NetworKit-style data structure).
	AdjListES
	// AdjSortES is the sorted adjacency-list sequential baseline
	// (Gengraph-style data structure).
	AdjSortES
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
	NaiveParES:  core.AlgNaiveParES,
	ParES:       core.AlgParES,
	ParGlobalES: core.AlgParGlobalES,
	AdjListES:   core.AlgAdjListES,
	AdjSortES:   core.AlgAdjSortES,
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
		SeqES, SeqGlobalES, NaiveParES, ParES, ParGlobalES,
		AdjListES, AdjSortES, Curveball, GlobalCurveball, Exact,
	}
}

// Options configures the legacy one-shot entry points Randomize,
// RandomizeDirected, and SampleFromDegrees.
//
// Deprecated: new code should use NewSampler with functional options
// (WithAlgorithm, WithWorkers, WithSeed, WithThinning, ...), which
// validates its inputs and amortizes engine setup across samples.
// Options remains supported as a thin conversion layer.
type Options struct {
	// Algorithm selects the implementation; default ParGlobalES.
	Algorithm Algorithm
	// Workers is the parallelism degree P; default 1. Negative values
	// are rejected with ErrInvalidWorkers.
	Workers int
	// SwapsPerEdge requests enough supersteps that the expected number
	// of switch attempts is SwapsPerEdge per edge. The paper (and the
	// empirical literature it cites) recommends 10-30; default 10,
	// i.e. 20 supersteps.
	SwapsPerEdge float64
	// Supersteps overrides SwapsPerEdge with an explicit superstep
	// count when > 0 (one superstep = ⌊m/2⌋ switch attempts for ES-MC
	// chains, one global switch for G-ES-MC chains).
	Supersteps int
	// Seed makes runs reproducible; runs with the same (graph, options)
	// are deterministic.
	Seed uint64
	// LoopProb is the P_L of G-ES-MC (Definition 3); default 1e-6.
	// Values outside [0, 1] are rejected with ErrInvalidLoopProb.
	LoopProb float64
	// Prefetch enables the hash-bucket pre-touch pipeline (§5.4).
	Prefetch bool
	// SampleViaBuckets makes SeqES sample edges by probing random hash
	// buckets instead of the auxiliary edge array (§5.3).
	SampleViaBuckets bool
}

func (o Options) supersteps() int {
	if o.Supersteps > 0 {
		return o.Supersteps
	}
	spe := o.SwapsPerEdge
	if spe <= 0 {
		spe = 10
	}
	return int(math.Ceil(2 * spe))
}

// samplerOptions converts the legacy struct to functional options.
// Zero values keep their legacy "use the default" meaning; out-of-range
// values surface the typed validation errors.
func (o Options) samplerOptions() []Option {
	opts := []Option{WithAlgorithm(o.Algorithm), WithSeed(o.Seed)}
	if o.Workers != 0 {
		opts = append(opts, WithWorkers(o.Workers))
	}
	if o.LoopProb != 0 {
		opts = append(opts, WithLoopProb(o.LoopProb))
	}
	if o.Prefetch {
		opts = append(opts, WithPrefetch(true))
	}
	if o.SampleViaBuckets {
		opts = append(opts, WithSampleViaBuckets(true))
	}
	return opts
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

// Randomize runs the selected switching Markov chain on g in place and
// returns run statistics. The degree sequence and simplicity of g are
// preserved; after enough supersteps (default 20) the result is an
// approximately uniform sample from the set of simple graphs with g's
// degrees.
//
// Randomize is the one-shot form of NewSampler(g, ...) followed by one
// Step call: every invocation rebuilds the engine's edge-set state from
// scratch. Callers drawing many samples from the same graph should hold
// a Sampler (see Ensemble) to amortize that setup.
func Randomize(g *Graph, opt Options) (Stats, error) { return randomizeOnce(g, opt) }

// randomizeOnce is the one-shot body of Randomize and RandomizeDirected.
func randomizeOnce(t Target, opt Options) (Stats, error) {
	start := time.Now()
	s, err := NewSampler(t, opt.samplerOptions()...)
	if err != nil {
		return Stats{}, err
	}
	st, err := s.Step(opt.supersteps())
	// One-shot semantics: release the worker gang immediately (no
	// sampler survives to Close it) and report a duration that includes
	// the engine construction the caller paid for, as it always did.
	s.Close()
	st.Duration = time.Since(start)
	return st, err
}

// SampleFromDegrees materializes the degree sequence with Havel-Hakimi
// and randomizes it: the one-call path to an approximately uniform
// sample of a simple graph with the prescribed degrees. For many
// samples of one sequence, build the graph once with FromDegrees and
// draw through a Sampler instead.
func SampleFromDegrees(degrees []int, opt Options) (*Graph, Stats, error) {
	g, err := FromDegrees(degrees)
	if err != nil {
		return nil, Stats{}, err
	}
	stats, err := Randomize(g, opt)
	if err != nil {
		return nil, Stats{}, err
	}
	return g, stats, nil
}

// Chain selects the Markov chain for AnalyzeMixing.
type Chain int

const (
	// ChainES is standard ES-MC.
	ChainES Chain = iota
	// ChainGlobalES is the paper's G-ES-MC.
	ChainGlobalES
)

// MixingResult is the output of AnalyzeMixing: for each thinning value
// (in supersteps), the fraction of tracked edges whose thinned
// time series still looks first-order-Markov rather than independent
// (§6.1's autocorrelation/BIC diagnostic).
type MixingResult struct {
	Thinnings      []int
	NonIndependent []float64
}

// FirstThinningBelow returns the smallest thinning whose fraction of
// non-independent edges is below tau, or 0 if none. The returned value
// is the natural input to WithThinning when drawing ensembles from
// graphs of the same scale.
func (m MixingResult) FirstThinningBelow(tau float64) int {
	for i, k := range m.Thinnings {
		if m.NonIndependent[i] < tau {
			return k
		}
	}
	return 0
}

// AnalyzeMixing runs the chain for the given number of supersteps on a
// clone of g (the graph is not modified) and reports the autocorrelation
// diagnostic over the edges of the initial graph.
func AnalyzeMixing(g *Graph, chain Chain, supersteps int, seed uint64) MixingResult {
	ac := autocorr.ChainES
	if chain == ChainGlobalES {
		ac = autocorr.ChainGlobalES
	}
	maxThin := supersteps / 8
	if maxThin < 2 {
		maxThin = 2
	}
	res := autocorr.Analyze(g.raw(), ac, supersteps, autocorr.DefaultThinnings(maxThin), core.DefaultLoopProb, seed)
	return MixingResult{Thinnings: res.Thinnings, NonIndependent: res.NonIndependent}
}
