package core

import (
	"sync/atomic"

	"gesmc/internal/conc"
	"gesmc/internal/graph"
	"gesmc/internal/rng"
	"gesmc/internal/switching"
)

// naiveStepper is the simplistic parallel ES-MC baseline of §5.1: every
// worker performs switches independently, synchronizing only through
// per-edge tickets (lock bytes) in the concurrent hash set. Conflicting
// attempts are rolled back and counted as rejections. The implementation
// ignores dependencies between switches and therefore does NOT faithfully
// implement ES-MC (the paper makes the same caveat); it exists as the
// performance baseline of Table 4.
type naiveStepper struct {
	g      *graph.Graph
	m, w   int
	E      []uint64 // edge array with atomic element access (racy reads by design)
	set    *conc.EdgeSet
	seeds  []uint64
	idx    int // supersteps performed so far (feeds the stream mixer)
	pool   *conc.Pool
	legals []int64
}

func newNaiveStepper(g *graph.Graph, cfg Config) *naiveStepper {
	w := cfg.workers()
	if w > 254 {
		w = 254 // owner ids must fit the 8-bit lock byte
	}
	m := g.M()
	E := make([]uint64, m)
	for i, e := range g.Edges() {
		E[i] = uint64(e)
	}
	// Owner ids double as counter-shard indices.
	set := conc.NewEdgeSet(2*m, w)
	set.BuildFrom(g.Edges())
	return &naiveStepper{
		g: g, m: m, w: w, E: E, set: set,
		seeds:  rng.PerWorkerSeeds(cfg.Seed, w),
		pool:   conc.NewPool(w),
		legals: make([]int64, w),
	}
}

func (s *naiveStepper) Step(st *switching.Stats) error {
	perStep := int64(s.m / 2)
	legals := s.legals
	step := s.idx
	s.pool.Run(func(worker int) {
		// Decorrelate the (worker, step) streams through the full
		// mixer: a plain additive stride equal to SplitMix64's
		// gamma would make consecutive supersteps replay nearly
		// the same stream.
		src := rng.NewSplitMix64(rng.Mix64(s.seeds[worker] ^ (uint64(step)+1)*0xD1B54A32D192ED03))
		owner := uint8(worker)
		lo := perStep * int64(worker) / int64(s.w)
		hi := perStep * int64(worker+1) / int64(s.w)
		var legal int64
		for a := lo; a < hi; a++ {
			if naiveAttempt(s.E, s.set, s.m, owner, src) {
				legal++
			}
		}
		legals[worker] = legal
	})
	for i, l := range legals {
		st.Legal += l
		legals[i] = 0
	}
	st.Attempted += perStep
	s.idx++
	// Quiescent point: drop accumulated tombstones if needed.
	if s.set.NeedsCompact() {
		edges := s.g.Edges()
		for i := range edges {
			edges[i] = graph.Edge(atomic.LoadUint64(&s.E[i]))
		}
		s.set.Compact(edges)
	}
	return nil
}

func (s *naiveStepper) Release() { s.pool.Close() }

// Finish writes the edge array back to the graph's edge list; the array
// remains the source of truth between increments.
func (s *naiveStepper) Finish() {
	edges := s.g.Edges()
	for i := range edges {
		edges[i] = graph.Edge(s.E[i])
	}
}

// naiveAttempt performs one optimistic switch: sample indices, read the
// (possibly stale) edges, lock both sources, re-validate, insert-lock
// both targets, and commit. Any failure unwinds and counts as rejection.
func naiveAttempt(E []uint64, set *conc.EdgeSet, m int, owner uint8, src rng.Source) bool {
	i, j := rng.TwoDistinct(src, m)
	e1 := graph.Edge(atomic.LoadUint64(&E[i]))
	e2 := graph.Edge(atomic.LoadUint64(&E[j]))
	if e1 == e2 {
		return false
	}
	t3, t4 := graph.SwitchTargets(e1, e2, rng.Bool(src))
	if t3.IsLoop() || t4.IsLoop() {
		return false
	}

	// Acquire tickets on the source edges.
	if !set.TryLock(e1, owner) {
		return false
	}
	if !set.TryLock(e2, owner) {
		set.Unlock(e1, owner)
		return false
	}
	// Re-validate the edge array: the reads above were racy.
	if graph.Edge(atomic.LoadUint64(&E[i])) != e1 ||
		graph.Edge(atomic.LoadUint64(&E[j])) != e2 {
		set.Unlock(e2, owner)
		set.Unlock(e1, owner)
		return false
	}
	// Acquire tickets on the target edges by inserting them locked.
	// Own-source targets fail here (they exist, locked by us), exactly
	// like Definition 1's "already exists in E".
	if !set.TryInsertLock(t3, owner) {
		set.Unlock(e2, owner)
		set.Unlock(e1, owner)
		return false
	}
	if !set.TryInsertLock(t4, owner) {
		set.EraseLocked(t3, owner)
		set.Unlock(e2, owner)
		set.Unlock(e1, owner)
		return false
	}

	// Commit: rewire the array, drop the sources, publish the targets.
	atomic.StoreUint64(&E[i], uint64(t3))
	atomic.StoreUint64(&E[j], uint64(t4))
	set.EraseLocked(e1, owner)
	set.EraseLocked(e2, owner)
	set.Unlock(t3, owner)
	set.Unlock(t4, owner)
	return true
}
