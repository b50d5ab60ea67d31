package gesmc

import (
	"context"
	"errors"
	"fmt"

	"gesmc/internal/constraint"
	"gesmc/internal/core"
	"gesmc/internal/curveball"
	"gesmc/internal/digraph"
	"gesmc/internal/exact"
	"gesmc/internal/switching"
)

// Target is a graph class the Sampler can randomize: *Graph (simple
// undirected graphs), and *DiGraph (simple directed graphs, which also
// covers bipartite graphs via FromBipartiteDegrees). The interface is
// sealed; the two implementations in this package are the supported
// target classes.
type Target interface {
	// compile builds the chain's engine over the target, which the
	// engine then mutates in place.
	compile(cfg *samplerConfig) (*switching.Engine, error)
	// snapshot clones the target's current state.
	snapshot() (*Graph, *DiGraph)
	// invalidate drops caches derived from the target's edges.
	invalidate()
}

// publicStats is the boundary conversion from the engine's counters to
// the public Stats.
func publicStats(algorithm string, st switching.Stats) Stats {
	out := Stats{
		Algorithm:        algorithm,
		Supersteps:       st.Supersteps,
		Attempted:        st.Attempted,
		Accepted:         st.Legal,
		AvgRounds:        st.AvgRounds(),
		MaxRounds:        st.MaxRounds,
		FirstRoundTime:   st.FirstRoundTime,
		LaterRoundsTime:  st.LaterRoundsTime,
		ConstraintVetoes: st.Vetoed,
		EscapeAttempts:   st.EscapeAttempts,
		EscapeMoves:      st.EscapeMoves,
		Restarts:         st.Restarts,
		LoopDefects:      st.LoopDefects,
		MultiDefects:     st.MultiDefects,
		Duration:         st.Duration,
	}
	if total := st.FirstRoundTime + st.LaterRoundsTime; total > 0 {
		out.LateRoundsFraction = float64(st.LaterRoundsTime) / float64(total)
	}
	return out
}

// Progress reports sampler advancement to a WithProgress callback.
type Progress struct {
	// Supersteps advanced over the sampler's lifetime.
	Supersteps int
	// Samples emitted so far (via Sample, Ensemble, or Collect).
	Samples int
}

// Sample is one draw of an ensemble: a deep copy of the target after
// burn-in/thinning, with the statistics of the supersteps that produced
// it. Exactly one of Graph and DiGraph is non-nil, matching the
// sampler's target class. A Sample with Err != nil reports early
// termination (context cancellation) and carries no graph.
type Sample struct {
	// Index is the position of this draw in the ensemble, from 0.
	Index int
	// Graph is the drawn undirected graph (nil for directed targets).
	Graph *Graph
	// DiGraph is the drawn directed graph (nil for undirected targets).
	DiGraph *DiGraph
	// Stats covers the supersteps advanced for this draw.
	Stats Stats
	// Err is the terminal error, if the ensemble stopped early.
	Err error
}

// Sampler is a reusable, stateful sampling engine: NewSampler compiles
// the target graph once into the selected algorithm's working state
// (hash-based edge set, dependency table, adjacency lists, RNG streams),
// after which Step, Sample, and Ensemble advance the same Markov chain
// without ever rebuilding that state. This amortizes the setup cost the
// paper's data structures (§5) are designed around: drawing k samples
// through one Sampler costs one compilation plus burn-in plus (k-1)
// thinning intervals, against k full burn-ins for k one-shot Randomize
// calls.
//
// The Sampler mutates the target in place; Ensemble and Collect hand
// out deep copies. A Sampler is not safe for concurrent use.
type Sampler struct {
	target  Target
	eng     *switching.Engine
	algName string
	burnIn  int
	thin    int

	progress func(Progress)
	samples  int
	burned   bool
	closed   bool
}

// NewSampler compiles the target into a reusable sampling engine.
// Options validate eagerly; the first invalid option is returned as a
// typed error (see errors.go).
func NewSampler(t Target, opts ...Option) (*Sampler, error) {
	if t == nil {
		return nil, ErrNilTarget
	}
	cfg := defaultSamplerConfig()
	for _, opt := range opts {
		if opt == nil {
			continue
		}
		if err := opt(&cfg); err != nil {
			return nil, err
		}
	}
	eng, err := t.compile(&cfg)
	if err != nil {
		return nil, err
	}
	burnIn, thin := cfg.burnInSteps(), cfg.thinningSteps()
	if cfg.algorithm == Exact {
		// Exact draws are i.i.d.: one superstep is one fresh uniform
		// draw, so burn-in and thinning collapse to a single superstep
		// (explicit schedule options were already rejected by the
		// engine compile with ErrExactSchedule).
		burnIn, thin = 1, 1
	}
	return &Sampler{
		target:   t,
		eng:      eng,
		algName:  cfg.algorithm.String(),
		burnIn:   burnIn,
		thin:     thin,
		progress: cfg.progress,
	}, nil
}

// Close releases the sampler's persistent worker gang (the parallel
// algorithms park P-1 long-lived goroutines between supersteps). The
// target keeps its current state. Close is idempotent; after the first
// call, Step, Sample, Ensemble, and Collect return ErrClosed instead of
// touching the released gang. Closing is optional — a leaked sampler's
// gang is reclaimed by a finalizer once the sampler is collected — but
// deterministic release is good hygiene for callers that compile many
// samplers (engine pools close evicted samplers through this path).
func (s *Sampler) Close() {
	if s.closed {
		return
	}
	s.closed = true
	s.eng.Close()
}

// Closed reports whether Close has been called.
func (s *Sampler) Closed() bool { return s.closed }

// Algorithm returns the name of the chain the sampler runs.
func (s *Sampler) Algorithm() string { return s.algName }

// BurnIn returns the supersteps the first Sample call advances.
func (s *Sampler) BurnIn() int { return s.burnIn }

// Thinning returns the supersteps between consecutive samples.
func (s *Sampler) Thinning() int { return s.thin }

// Supersteps returns the total supersteps advanced over the sampler's
// lifetime.
func (s *Sampler) Supersteps() int { return s.eng.Stats().Supersteps }

// Samples returns the number of samples drawn so far.
func (s *Sampler) Samples() int { return s.samples }

// Stats returns the statistics accumulated over the sampler's lifetime.
func (s *Sampler) Stats() Stats { return publicStats(s.algName, s.eng.Stats()) }

// advance moves the chain k supersteps, merging counters exactly and
// firing the progress callback per superstep when registered.
func (s *Sampler) advance(ctx context.Context, k int) (Stats, error) {
	if s.closed {
		return Stats{}, ErrClosed
	}
	if k < 0 {
		return Stats{}, fmt.Errorf("%w: got %d", ErrInvalidSupersteps, k)
	}
	if s.progress == nil {
		d, err := s.steps(ctx, k)
		return publicStats(s.algName, d), err
	}
	var agg switching.Stats
	for i := 0; i < k; i++ {
		d, err := s.steps(ctx, 1)
		agg.Add(d)
		if err != nil {
			return publicStats(s.algName, agg), err
		}
		s.progress(Progress{Supersteps: s.Supersteps(), Samples: s.samples})
	}
	return publicStats(s.algName, agg), nil
}

// steps advances the engine and drops the target's derived caches.
func (s *Sampler) steps(ctx context.Context, k int) (switching.Stats, error) {
	d, err := s.eng.Steps(ctx, k)
	s.target.invalidate()
	return d, err
}

// Step advances the chain by k supersteps (one superstep = ⌊m/2⌋ switch
// attempts for ES-MC chains, one global switch/trade for the global
// chains) and returns the statistics of exactly this increment. The
// target reflects the new state in place.
func (s *Sampler) Step(k int) (Stats, error) {
	return s.StepContext(context.Background(), k)
}

// StepContext is Step with cancellation, honored at superstep
// boundaries: on ctx expiry the target is left in the valid state after
// the last completed superstep and ctx.Err() is returned alongside
// partial statistics.
func (s *Sampler) StepContext(ctx context.Context, k int) (Stats, error) {
	return s.advance(ctx, k)
}

// Sample advances the chain to the next independent sample: the burn-in
// interval on the first call, the thinning interval afterwards. The
// target then holds the sample; read it in place, or Clone it to keep
// it past the next advance.
func (s *Sampler) Sample() (Stats, error) {
	return s.SampleContext(context.Background())
}

// SampleContext is Sample with cancellation.
func (s *Sampler) SampleContext(ctx context.Context) (Stats, error) {
	k := s.thin
	if !s.burned {
		k = s.burnIn
	}
	st, err := s.advance(ctx, k)
	if err != nil {
		return st, err
	}
	s.burned = true
	s.samples++
	return st, nil
}

// Burned reports whether the burn-in interval has been paid: the next
// Sample call advances the thinning interval rather than the burn-in.
// Pooling layers use it together with Supersteps to decide whether a
// cached chain can still fast-forward to a resume point.
func (s *Sampler) Burned() bool { return s.burned }

// FastForwardTo advances the chain so that the next Sample call emits
// the canonical ensemble draw with the given index — the chain state
// after burnIn + index·thinning supersteps from the compiled target,
// exactly the state an uninterrupted Ensemble run reaches for its
// index-th sample (superstep advancement is split-invariant, see
// TestEngineSplitStepsMatchOneShot). This is the resume primitive of
// the serving layer: a stream broken after index samples is continued
// bit-identically by fast-forwarding a fresh sampler with the same
// (target, options, seed) and drawing the remaining samples.
//
// The chain only runs forward: if it has already advanced past the
// required position (a pooled sampler that served a longer stream),
// FastForwardTo returns ErrResumeBehind and the chain is unchanged.
// On context cancellation the chain stops at a superstep boundary and
// remains valid. The returned Stats cover the supersteps advanced by
// the fast-forward itself.
func (s *Sampler) FastForwardTo(ctx context.Context, index int) (Stats, error) {
	if s.closed {
		return Stats{}, ErrClosed
	}
	if index < 0 {
		return Stats{}, fmt.Errorf("%w: got %d", ErrInvalidCount, index)
	}
	// Position the chain so the next advance (burn-in if unburned,
	// thinning if burned) lands exactly on burnIn + index·thinning.
	pos := index * s.thin
	if s.burned {
		pos += s.burnIn - s.thin
	}
	at := s.Supersteps()
	if pos < at {
		return Stats{}, fmt.Errorf("%w: chain at superstep %d, resume point needs %d",
			ErrResumeBehind, at, pos)
	}
	return s.advance(ctx, pos-at)
}

// Ensemble streams count thinned samples as deep copies over a channel,
// the null-model workload: one engine compilation, one burn-in, then a
// sample every thinning interval. The channel closes after the last
// sample; on cancellation it closes early, delivering a final Sample
// carrying the context error when the consumer is keeping pace (best
// effort — use Collect when the terminal error must be observed
// synchronously). Callers must either drain the channel or cancel ctx;
// abandoning it without cancelling leaks the producing goroutine.
func (s *Sampler) Ensemble(ctx context.Context, count int) <-chan Sample {
	ch := make(chan Sample, 1)
	go func() {
		defer close(ch)
		if count < 0 {
			ch <- Sample{Err: fmt.Errorf("%w: got %d", ErrInvalidCount, count)}
			return
		}
		for i := 0; i < count; i++ {
			st, err := s.SampleContext(ctx)
			if err != nil {
				// Deliver the termination marker if anyone still listens.
				select {
				case ch <- Sample{Index: i, Stats: st, Err: err}:
				default:
				}
				return
			}
			g, dg := s.target.snapshot()
			smp := Sample{Index: i, Graph: g, DiGraph: dg, Stats: st}
			select {
			case ch <- smp:
			case <-ctx.Done():
				select {
				case ch <- Sample{Index: i, Err: ctx.Err()}:
				default:
				}
				return
			}
		}
	}()
	return ch
}

// Collect draws count thinned samples synchronously. On cancellation it
// returns the samples drawn so far alongside the context error.
func (s *Sampler) Collect(ctx context.Context, count int) ([]Sample, error) {
	if count < 0 {
		return nil, fmt.Errorf("%w: got %d", ErrInvalidCount, count)
	}
	out := make([]Sample, 0, count)
	for i := 0; i < count; i++ {
		st, err := s.SampleContext(ctx)
		if err != nil {
			return out, err
		}
		g, dg := s.target.snapshot()
		out = append(out, Sample{Index: i, Graph: g, DiGraph: dg, Stats: st})
	}
	return out, nil
}

// newExactEngine compiles an undirected target for the Exact
// algorithm, mapping the internal typed errors to the public
// sentinels and rejecting the options that have no meaning for i.i.d.
// draws. The engine has no worker gang; WithWorkers is accepted but
// ignored.
func newExactEngine(g *Graph, cfg *samplerConfig) (*switching.Engine, error) {
	if len(cfg.constraints) > 0 {
		return nil, fmt.Errorf("%w: %s", ErrUnsupportedConstraint, exactName)
	}
	if cfg.burnIn > 0 || cfg.thinning > 0 || cfg.swapsSet {
		return nil, fmt.Errorf("%w (WithBurnIn/WithThinning/WithSwapsPerEdge with %s)",
			ErrExactSchedule, exactName)
	}
	eng, err := exact.New(g.g.Degrees(), cfg.seed)
	if err != nil {
		var ue *exact.UnsupportedError
		if errors.As(err, &ue) {
			return nil, fmt.Errorf("%w: λ+λ² = %.2f", ErrExactUnsupported, ue.Score)
		}
		// The degree sequence of an existing graph is graphical by
		// construction; anything else is an internal invariant break.
		return nil, err
	}
	return switching.NewEngine(eng.Stepper(g.g.Edges())), nil
}

func (g *Graph) snapshot() (*Graph, *DiGraph) { return g.Clone(), nil }

// compile builds an undirected target's engine: the seven switching
// implementations, the two Curveball chains, and the exact tier.
func (g *Graph) compile(cfg *samplerConfig) (*switching.Engine, error) {
	if g == nil || g.g == nil {
		return nil, ErrNilTarget
	}
	if cfg.algorithm == Exact {
		return newExactEngine(g, cfg)
	}
	if cfg.algorithm == Curveball || cfg.algorithm == GlobalCurveball {
		if len(cfg.constraints) > 0 {
			return nil, fmt.Errorf("%w: %s", ErrUnsupportedConstraint, cfg.algorithm)
		}
		if g.g.M() < 2 {
			return nil, fmt.Errorf("%w: m=%d", ErrGraphTooSmall, g.g.M())
		}
		eng := curveball.NewEngine(g.g, cfg.workers, cfg.seed)
		eng.Prefetch = cfg.prefetch
		if cfg.chunkBytes > 0 {
			eng.SetChunkBytes(cfg.chunkBytes)
		}
		return switching.NewEngine(eng.Stepper(cfg.algorithm == GlobalCurveball, g.g.Edges())), nil
	}
	ca, ok := algNames[cfg.algorithm]
	if !ok {
		return nil, fmt.Errorf("%w: Algorithm(%d)", ErrUnknownAlgorithm, int(cfg.algorithm))
	}
	var spec *constraint.Spec
	if len(cfg.constraints) > 0 {
		switch cfg.algorithm {
		case SeqES, SeqGlobalES, ParES, ParGlobalES:
		default:
			return nil, fmt.Errorf("%w: %s", ErrUnsupportedConstraint, cfg.algorithm)
		}
		if cfg.sampleViaBuckets {
			return nil, fmt.Errorf("%w: WithSampleViaBuckets", ErrUnsupportedConstraint)
		}
		var err error
		spec, err = compileConstraints(cfg.constraints, g.g.N(), false, g.g.Edges(), g.IsConnected)
		if err != nil {
			return nil, err
		}
	}
	eng, err := core.NewEngine(g.g, ca, core.Config{
		Workers:          cfg.workers,
		Seed:             cfg.seed,
		LoopProb:         cfg.loopProb,
		Prefetch:         cfg.prefetch,
		SampleViaBuckets: cfg.sampleViaBuckets,
		ChunkBytes:       cfg.chunkBytes,
		Constraint:       spec,
	})
	if err != nil {
		if errors.Is(err, core.ErrTooSmall) {
			return nil, fmt.Errorf("%w: m=%d", ErrGraphTooSmall, g.g.M())
		}
		return nil, err
	}
	return eng, nil
}

// dirAlgs maps the public enum to the directed implementations.
// Directed switches need no direction bit, so ES-MC's data-structure
// ablations add nothing in the directed setting.
var dirAlgs = map[Algorithm]digraph.Algorithm{
	SeqES:       digraph.AlgSeqES,
	SeqGlobalES: digraph.AlgSeqGlobalES,
	ParGlobalES: digraph.AlgParGlobalES,
}

func (g *DiGraph) snapshot() (*Graph, *DiGraph) { return nil, g.Clone() }

// invalidate is a no-op: a DiGraph keeps no index over its arcs.
func (g *DiGraph) invalidate() {}

// compile builds a directed (or bipartite) target's engine.
func (g *DiGraph) compile(cfg *samplerConfig) (*switching.Engine, error) {
	if g == nil || g.g == nil {
		return nil, ErrNilTarget
	}
	da, ok := dirAlgs[cfg.algorithm]
	if !ok {
		return nil, fmt.Errorf("%w: directed randomization supports SeqES, SeqGlobalES, ParGlobalES; got %s",
			ErrUnsupportedAlgorithm, cfg.algorithm)
	}
	spec, err := compileConstraints(cfg.constraints, g.g.N(), true, g.g.Arcs(), g.IsConnected)
	if err != nil {
		return nil, err
	}
	eng, err := digraph.NewEngine(g.g, da, digraph.Config{
		Workers:    cfg.workers,
		Seed:       cfg.seed,
		LoopProb:   cfg.loopProb,
		Prefetch:   cfg.prefetch,
		ChunkBytes: cfg.chunkBytes,
		Constraint: spec,
	})
	if err != nil {
		if errors.Is(err, digraph.ErrTooSmall) {
			return nil, fmt.Errorf("%w: m=%d", ErrGraphTooSmall, g.g.M())
		}
		return nil, err
	}
	return eng, nil
}
