package switching

import (
	"context"
	"time"

	"gesmc/internal/rng"
)

// Stats is the one counter type of every chain, from the round
// driver's cumulative totals up to the public Sampler statistics:
// engines, steppers, and the constraint runtime all add into it
// directly, so no layer copies counters field by field. The field
// names follow Figure 9 of the paper: InternalSupersteps counts kernel
// invocations, TotalRounds/MaxRounds the decision rounds they needed,
// and the two durations split round time into the first round (where
// almost all work happens under the natural scheduler) and the
// re-examination tail.
type Stats struct {
	// Supersteps counts chain supersteps advanced by an Engine (one
	// superstep = ⌊m/2⌋ switch attempts for ES-MC chains, one global
	// switch or trade for the global chains, one draw for the exact
	// tier). The kernel leaves it zero.
	Supersteps int
	// Attempted counts proposals (switches, trades, or exact-tier
	// configurations); Legal the accepted ones, net of rollbacks.
	Attempted int64
	Legal     int64

	// Parallel superstep instrumentation (zero for sequential chains).
	InternalSupersteps int
	TotalRounds        int64
	MaxRounds          int
	FirstRoundTime     time.Duration
	LaterRoundsTime    time.Duration

	// Constraint instrumentation (zero without an active constraint):
	// Vetoed counts switches rejected by the constraint layer — local
	// vetoes, connectivity rejections, and accepted switches undone by
	// a post-superstep Rollback, which RolledBack counts separately.
	// EscapeAttempts and EscapeMoves count the compound k-switch escape
	// proposals and acceptances.
	Vetoed         int64
	RolledBack     int64
	EscapeAttempts int64
	EscapeMoves    int64

	// Exact-tier instrumentation (zero for the chains): configurations
	// rejected for a defect and regenerated, split by first defect.
	Restarts     int64
	LoopDefects  int64
	MultiDefects int64

	Duration time.Duration
}

// Add accumulates d into s. Every counter sums except MaxRounds, which
// takes the maximum — the one merge every layer shares.
func (s *Stats) Add(d Stats) {
	s.Supersteps += d.Supersteps
	s.Attempted += d.Attempted
	s.Legal += d.Legal
	s.InternalSupersteps += d.InternalSupersteps
	s.TotalRounds += d.TotalRounds
	s.MaxRounds = max(s.MaxRounds, d.MaxRounds)
	s.FirstRoundTime += d.FirstRoundTime
	s.LaterRoundsTime += d.LaterRoundsTime
	s.Vetoed += d.Vetoed
	s.RolledBack += d.RolledBack
	s.EscapeAttempts += d.EscapeAttempts
	s.EscapeMoves += d.EscapeMoves
	s.Restarts += d.Restarts
	s.LoopDefects += d.LoopDefects
	s.MultiDefects += d.MultiDefects
	s.Duration += d.Duration
}

// Sub returns the field-wise increment from prev to s, so callers can
// carve deltas out of cumulative totals. MaxRounds does not decompose
// into increments and is carried over cumulatively; RoundDriver.Flush
// substitutes the increment's own maximum.
func (s Stats) Sub(prev Stats) Stats {
	return Stats{
		Supersteps:         s.Supersteps - prev.Supersteps,
		Attempted:          s.Attempted - prev.Attempted,
		Legal:              s.Legal - prev.Legal,
		InternalSupersteps: s.InternalSupersteps - prev.InternalSupersteps,
		TotalRounds:        s.TotalRounds - prev.TotalRounds,
		MaxRounds:          s.MaxRounds,
		FirstRoundTime:     s.FirstRoundTime - prev.FirstRoundTime,
		LaterRoundsTime:    s.LaterRoundsTime - prev.LaterRoundsTime,
		Vetoed:             s.Vetoed - prev.Vetoed,
		RolledBack:         s.RolledBack - prev.RolledBack,
		EscapeAttempts:     s.EscapeAttempts - prev.EscapeAttempts,
		EscapeMoves:        s.EscapeMoves - prev.EscapeMoves,
		Restarts:           s.Restarts - prev.Restarts,
		LoopDefects:        s.LoopDefects - prev.LoopDefects,
		MultiDefects:       s.MultiDefects - prev.MultiDefects,
		Duration:           s.Duration - prev.Duration,
	}
}

// AvgRounds returns the mean rounds per kernel superstep.
func (s *Stats) AvgRounds() float64 {
	if s.InternalSupersteps == 0 {
		return 0
	}
	return float64(s.TotalRounds) / float64(s.InternalSupersteps)
}

// RejectionRate returns the fraction of attempted proposals rejected.
func (s *Stats) RejectionRate() float64 {
	if s.Attempted == 0 {
		return 0
	}
	return 1 - float64(s.Legal)/float64(s.Attempted)
}

// Stepper is one chain's resumable state, plugged into an Engine. Step
// advances exactly one superstep and adds its counters to st. A
// stepper may also implement Finisher and Releaser.
type Stepper interface {
	Step(st *Stats) error
}

// Finisher is implemented by steppers that buffer state privately:
// Finish publishes it to the target's edge list at the end of every
// Steps call.
type Finisher interface{ Finish() }

// Releaser is implemented by steppers that own a persistent worker
// gang; Engine.Close parks it.
type Releaser interface{ Release() }

// Engine is a resumable chain run: the target is compiled once into a
// stepper's working state (edge set, dependency table, adjacency, RNG
// streams), after which Steps advances the chain in arbitrarily many
// increments without rebuilding anything. Every chain of the
// repository — undirected, directed, trade, and exact — runs through
// this one superstep loop. Splitting k supersteps across several Steps
// calls yields the same final state as one call, because the proposal
// sequence drawn from the seed does not depend on the partitioning.
type Engine struct {
	st    Stepper
	delta Stats // the running increment, a field so Steps does not allocate
	stats Stats
}

// NewEngine wraps a compiled stepper.
func NewEngine(st Stepper) *Engine { return &Engine{st: st} }

// Steps advances the chain by k supersteps and returns the statistics
// of exactly this increment. Cancellation is honored at superstep
// boundaries: on ctx expiry the target is left in the valid state after
// the last completed superstep and ctx.Err() is returned alongside the
// partial statistics. A stepper error stops the loop the same way.
func (e *Engine) Steps(ctx context.Context, k int) (Stats, error) {
	start := time.Now()
	e.delta = Stats{}
	var err error
	for i := 0; i < k; i++ {
		if err = ctx.Err(); err != nil {
			break
		}
		if err = e.st.Step(&e.delta); err != nil {
			break
		}
		e.delta.Supersteps++
	}
	if f, ok := e.st.(Finisher); ok {
		f.Finish()
	}
	e.delta.Duration = time.Since(start)
	e.stats.Add(e.delta)
	return e.delta, err
}

// Stats returns the counters accumulated over the engine's lifetime.
func (e *Engine) Stats() Stats { return e.stats }

// Close releases the stepper's persistent worker gang, if it owns one.
// The engine must not be stepped afterwards. Closing is optional —
// leaked gangs are reclaimed by a finalizer — but deterministic for
// callers that create many engines.
func (e *Engine) Close() {
	if r, ok := e.st.(Releaser); ok {
		r.Release()
	}
}

// GlobalStepper is the parallel G-ES-MC chain (Algorithm 3) for any
// edge kind. Per superstep it shuffles the edge list physically by a
// parallel uniform permutation and draws ℓ ~ Binom(⌊m/2⌋, 1−P_L); the
// runner's global superstep (RunGlobal) then pairs adjacent slots,
// switch k taking E[2k] and E[2k+1], and E[2ℓ:] are its survivors.
// Pairing the slots of a shuffled list has the law of pairing
// E[π(2k)] with E[π(2k+1)] (Definition 3). The shuffle writes into a
// second list of the same length, and the two alternate as the
// runner's edge list; Finish moves the state back into the target's
// own list when Steps returns. The permutation seeds are drawn lazily
// from a SplitMix64 stream salted per edge kind, so a resumed engine
// replays the identical chain.
type GlobalStepper[E EdgeKind[E]] struct {
	runner   *Runner[E]
	src      rng.Source      // ℓ draws (and the after-hook's escape draws)
	seedSrc  *rng.SplitMix64 // per-superstep permutation seeds
	perm     *rng.PermGen[E]
	dispatch rng.Dispatch // the runner's gang, stored once (alloc-free steps)
	edges    []E          // the target's edge list
	spare    []E          // the shuffle's other list
	loopProb float64
	after    AfterFunc[E]
}

// AfterFunc runs after each superstep's kernel pass — the constraint
// layer's speculate-then-recertify hook — adding its counters to st.
type AfterFunc[E EdgeKind[E]] func(r *Runner[E], src rng.Source, st *Stats)

// NewGlobalStepper wires a G-ES-MC stepper over runner r (sized for
// ⌊m/2⌋ switches). The seed feeds the ℓ stream directly and the
// permutation stream XOR salt; after may be nil.
func NewGlobalStepper[E EdgeKind[E]](r *Runner[E], seed, salt uint64, loopProb float64,
	after AfterFunc[E]) *GlobalStepper[E] {
	m := len(r.E)
	return &GlobalStepper[E]{
		runner:   r,
		src:      rng.NewMT19937(seed),
		seedSrc:  rng.NewSplitMix64(seed ^ salt),
		perm:     rng.NewPermGen[E](m),
		dispatch: r.Pool().Blocks,
		edges:    r.E,
		spare:    make([]E, m),
		loopProb: loopProb,
		after:    after,
	}
}

// Step performs one global switch.
func (s *GlobalStepper[E]) Step(st *Stats) error {
	r := s.runner
	s.perm.Permute(s.seedSrc.Uint64(), r.E, s.spare, s.dispatch)
	r.E, s.spare = s.spare, r.E
	l := int(rng.BinomialComplementSmall(s.src, int64(len(r.E)/2), s.loopProb))
	r.RunGlobal(l)
	st.Attempted += int64(l)
	if s.after != nil {
		s.after(r, s.src, st)
	}
	r.Flush(st)
	return nil
}

// Finish copies the state into the target's edge list when the last
// shuffle left it in the spare list, which the runner then keeps
// using as the spare.
func (s *GlobalStepper[E]) Finish() {
	r := s.runner
	if &r.E[0] == &s.edges[0] {
		return
	}
	copy(s.edges, r.E)
	r.E, s.spare = s.edges, r.E
}

// Release parks the runner's worker gang.
func (s *GlobalStepper[E]) Release() { s.runner.Release() }
