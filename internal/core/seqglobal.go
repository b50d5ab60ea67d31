package core

import (
	"gesmc/internal/graph"
	"gesmc/internal/hashset"
	"gesmc/internal/rng"
	"gesmc/internal/switching"
)

// ExecuteGlobalSequential performs one global switch Γ = (π, ℓ) on the
// edge list/set sequentially, per Definitions 1 and 3. Returns accepted
// switch count.
func ExecuteGlobalSequential(E []graph.Edge, S *hashset.Set, perm []uint32, l int, buf []Switch) (int64, []Switch) {
	buf = GlobalSwitches(perm, l, buf)
	return ExecuteSequential(E, S, buf), buf
}

// seqGlobalStepper is the production sequential G-ES-MC (§5's
// SeqGlobalES): each superstep shuffles the edge indices, draws ℓ, and
// executes the resulting switches in order.
type seqGlobalStepper struct {
	m        int
	E        []graph.Edge
	S        *hashset.Set
	src      rng.Source
	prefetch bool
	pl       float64
	buf      []Switch
	cons     *constrainedRuntime
}

func newSeqGlobalStepper(g *graph.Graph, cfg Config, cons *constrainedRuntime) *seqGlobalStepper {
	E := g.Edges()
	S := hashset.FromEdges(E, 0.5)
	if cons != nil {
		bindHashSet(cons, S)
	}
	return &seqGlobalStepper{
		m: g.M(), E: E, S: S,
		src:      rng.NewMT19937(cfg.Seed),
		prefetch: cfg.Prefetch,
		pl:       cfg.loopProb(),
		buf:      make([]Switch, 0, g.M()/2),
		cons:     cons,
	}
}

func (s *seqGlobalStepper) Step(st *switching.Stats) error {
	perm, l := SampleGlobalSwitch(s.m, s.pl, s.src)
	s.buf = GlobalSwitches(perm, l, s.buf)
	switch {
	case s.cons != nil:
		s.cons.ExecuteSequential(s.E, s.buf, s.src, st)
	case s.prefetch:
		st.Legal += executeSequentialPrefetch(s.E, s.S, s.buf)
	default:
		st.Legal += ExecuteSequential(s.E, s.S, s.buf)
	}
	st.Attempted += int64(l)
	return nil
}
