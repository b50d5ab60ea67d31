package main

import (
	"math/bits"
	"sort"
	"sync/atomic"

	"gesmc/internal/conc"
	"gesmc/internal/core"
	"gesmc/internal/graph"
	"gesmc/internal/rng"
	"gesmc/internal/switching"
)

// The evaluation-only baselines of Table 4, as switching.Stepper
// plug-ins: NaiveParES, the inexact parallel ES-MC of §5.1, and the
// adjacency-list sequential ES-MC standing in for NetworKit (AdjListES)
// and Gengraph (AdjSortES). No served path reaches them.

// The baseline builders; like core.NewEngine they refuse graphs with
// fewer than two edges, on which no switch is defined.
var (
	naiveParES = baseline(newNaiveStepper)
	adjListES  = baseline(func(g *graph.Graph, cfg core.Config) *adjListStepper { return newAdjListStepper(g, cfg, false) })
	adjSortES  = baseline(func(g *graph.Graph, cfg core.Config) *adjListStepper { return newAdjListStepper(g, cfg, true) })
)

func baseline[S switching.Stepper](newStepper func(*graph.Graph, core.Config) S) builder {
	return func(g *graph.Graph, cfg core.Config) (*switching.Engine, error) {
		if g.M() < 2 {
			return nil, core.ErrTooSmall
		}
		return switching.NewEngine(newStepper(g, cfg)), nil
	}
}

// lockedSet is NaiveParES's concurrent edge table in the paper's §5.2
// layout: open addressing with linear probing, each 64-bit bucket a
// 56-bit packed edge (28 bits per endpoint, so node ids stay below
// graph.MaxNodes) under an 8-bit lock byte (0 = unlocked, otherwise
// owner id + 1). Empty and tombstone decode to loops, which are never
// stored. Inserts never reuse tombstones: concurrent inserters of the
// same edge may race, and claiming only empty chain tails guarantees at
// most one wins. The owner rebuilds the table at a quiescent point once
// tombstones accumulate.
type lockedSet struct {
	buckets []uint64
	mask    uint64
}

const (
	lockedEmpty     = uint64(0)
	lockedTombstone = uint64(0x00FFFFFFFFFFFFFF) // packed loop {2^28-1, 2^28-1}
	lockedEdgeMask  = uint64(0x00FFFFFFFFFFFFFF)
	lockShift       = 56
	// maxOwners is the largest owner count the lock byte can name.
	maxOwners = 254
)

// packEdge converts the 64-bit edge encoding (32+32) into the 56-bit
// bucket encoding (28+28).
func packEdge(e graph.Edge) uint64 {
	return uint64(e.U())<<28 | uint64(e.V())
}

// newLockedSet returns a table with room for capacity edges at load
// factor <= 1/2.
func newLockedSet(capacity int) *lockedSet {
	nb := max(1<<uint(bits.Len(uint(capacity*2))), 16)
	return &lockedSet{buckets: make([]uint64, nb), mask: uint64(nb - 1)}
}

// rebuild empties the table and inserts the given distinct edges,
// unlocked, with workers goroutines of p. Quiescent points only.
func (s *lockedSet) rebuild(p *conc.Pool, edges []graph.Edge) {
	p.Blocks(len(s.buckets), func(_, lo, hi int) { clear(s.buckets[lo:hi]) })
	p.Blocks(len(edges), func(_, lo, hi int) {
		for _, e := range edges[lo:hi] {
			s.claim(packEdge(e), packEdge(e))
		}
	})
}

// claim stores v in the first empty bucket of p's probe chain, unless a
// live bucket there already holds p, and reports whether it stored.
func (s *lockedSet) claim(p, v uint64) bool {
	i := rng.Mix64(p) & s.mask
	for probes := uint64(0); probes <= s.mask; probes++ {
		b := atomic.LoadUint64(&s.buckets[i])
		if b&lockedEdgeMask == p && b != lockedTombstone {
			return false // exists (whoever holds it)
		}
		if b == lockedEmpty {
			if atomic.CompareAndSwapUint64(&s.buckets[i], lockedEmpty, v) {
				return true
			}
			continue // re-examine raced slot: may now hold p
		}
		i = (i + 1) & s.mask
	}
	panic("experiments: lockedSet full")
}

// find returns the index of the live bucket holding e, locked or not,
// or -1 if e is absent.
func (s *lockedSet) find(e graph.Edge) int {
	p := packEdge(e)
	i := rng.Mix64(p) & s.mask
	for probes := uint64(0); probes <= s.mask; probes++ {
		b := atomic.LoadUint64(&s.buckets[i])
		if b == lockedEmpty {
			return -1
		}
		if b&lockedEdgeMask == p {
			return int(i)
		}
		i = (i + 1) & s.mask
	}
	panic("experiments: lockedSet probe loop exhausted")
}

// Contains reports whether e is live, ignoring its lock byte.
func (s *lockedSet) Contains(e graph.Edge) bool { return s.find(e) >= 0 }

func lockedBits(e graph.Edge, owner uint8) uint64 {
	return packEdge(e) | uint64(owner+1)<<lockShift
}

// TryLock acquires the ticket for an existing unlocked edge by writing
// owner+1 into its lock byte. It fails if the edge is absent, locked,
// or contended.
func (s *lockedSet) TryLock(e graph.Edge, owner uint8) bool {
	i := s.find(e)
	return i >= 0 && atomic.CompareAndSwapUint64(&s.buckets[i], packEdge(e), lockedBits(e, owner))
}

// TryInsertLock inserts e locked by owner if it is absent. It fails if
// e is present, locked or not.
func (s *lockedSet) TryInsertLock(e graph.Edge, owner uint8) bool {
	return s.claim(packEdge(e), lockedBits(e, owner))
}

// Unlock releases owner's lock on live edge e.
func (s *lockedSet) Unlock(e graph.Edge, owner uint8) {
	s.release(e, owner, packEdge(e), "Unlock")
}

// EraseLocked removes edge e whose lock owner holds, leaving a
// tombstone.
func (s *lockedSet) EraseLocked(e graph.Edge, owner uint8) {
	s.release(e, owner, lockedTombstone, "EraseLocked")
}

// release replaces owner's locked bucket of e with v; it panics if e is
// absent or not locked by owner.
func (s *lockedSet) release(e graph.Edge, owner uint8, v uint64, op string) {
	i := s.find(e)
	if i < 0 {
		panic("experiments: " + op + " of absent edge")
	}
	if !atomic.CompareAndSwapUint64(&s.buckets[i], lockedBits(e, owner), v) {
		panic("experiments: " + op + " of an edge owner does not hold")
	}
}

// naiveStepper is the simplistic parallel ES-MC baseline of §5.1: every
// worker performs switches independently, synchronizing only through
// per-edge tickets (lock bytes) in a lockedSet. Conflicting attempts
// are rolled back and counted as rejections. The implementation ignores
// dependencies between switches and therefore does NOT faithfully
// implement ES-MC (the paper makes the same caveat); it exists as the
// performance baseline of Table 4. With one worker there are no races
// and it runs exact ES-MC, deterministically per seed.
type naiveStepper struct {
	g     *graph.Graph
	m, w  int
	E     []uint64 // edge array with atomic element access (racy reads by design)
	set   *lockedSet
	seeds []uint64
	idx   int // supersteps performed so far (feeds the stream mixer)
	pool  *conc.Pool
	// Per-worker tallies of the current superstep, and the tombstones
	// written since the last rebuild.
	legals, tombs []int64
	tombstones    int64
}

func newNaiveStepper(g *graph.Graph, cfg core.Config) *naiveStepper {
	w := min(max(cfg.Workers, 1), maxOwners)
	m := g.M()
	E := make([]uint64, m)
	for i, e := range g.Edges() {
		E[i] = uint64(e)
	}
	s := &naiveStepper{
		g: g, m: m, w: w, E: E,
		set:    newLockedSet(2 * m),
		seeds:  rng.PerWorkerSeeds(cfg.Seed, w),
		pool:   conc.NewPool(w),
		legals: make([]int64, w),
		tombs:  make([]int64, w),
	}
	s.set.rebuild(s.pool, g.Edges())
	return s
}

func (s *naiveStepper) Step(st *switching.Stats) error {
	perStep := s.m / 2
	step := s.idx
	clear(s.legals)
	clear(s.tombs)
	// Each worker runs the attempts of its static block on its own
	// (worker, step) stream.
	s.pool.Blocks(perStep, func(worker, lo, hi int) {
		// Decorrelate the (worker, step) streams through the full
		// mixer: a plain additive stride equal to SplitMix64's
		// gamma would make consecutive supersteps replay nearly
		// the same stream.
		src := rng.NewSplitMix64(rng.Mix64(s.seeds[worker] ^ (uint64(step)+1)*0xD1B54A32D192ED03))
		owner := uint8(worker)
		var legal, tombs int64
		for a := lo; a < hi; a++ {
			t := naiveAttempt(s.E, s.set, s.m, owner, src)
			tombs += int64(t)
			if t == 2 {
				legal++
			}
		}
		s.legals[worker], s.tombs[worker] = legal, tombs
	})
	for i := range s.legals {
		st.Legal += s.legals[i]
		s.tombstones += s.tombs[i]
	}
	st.Attempted += int64(perStep)
	s.idx++
	// Quiescent point: drop the tombstones once they fill a quarter of
	// the table, so probe chains stay short and the table never fills.
	if s.tombstones*4 > int64(len(s.set.buckets)) {
		s.Finish()
		s.set.rebuild(s.pool, s.g.Edges())
		s.tombstones = 0
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
// both targets, and commit. Any failure unwinds and counts as
// rejection. It returns the tombstones it left in the set: 2 for a
// committed switch (the erased sources), 1 when the second target was
// present and the first had to be erased again, 0 otherwise.
func naiveAttempt(E []uint64, set *lockedSet, m int, owner uint8, src rng.Source) int {
	i, j := rng.TwoDistinct(src, m)
	e1 := graph.Edge(atomic.LoadUint64(&E[i]))
	e2 := graph.Edge(atomic.LoadUint64(&E[j]))
	if e1 == e2 {
		return 0
	}
	t3, t4 := graph.SwitchTargets(e1, e2, rng.Bool(src))
	if t3.IsLoop() || t4.IsLoop() {
		return 0
	}

	// Acquire tickets on the source edges.
	if !set.TryLock(e1, owner) {
		return 0
	}
	if !set.TryLock(e2, owner) {
		set.Unlock(e1, owner)
		return 0
	}
	// Re-validate the edge array: the reads above were racy.
	if graph.Edge(atomic.LoadUint64(&E[i])) != e1 ||
		graph.Edge(atomic.LoadUint64(&E[j])) != e2 {
		set.Unlock(e2, owner)
		set.Unlock(e1, owner)
		return 0
	}
	// Acquire tickets on the target edges by inserting them locked.
	// Own-source targets fail here (they exist, locked by us), exactly
	// like Definition 1's "already exists in E".
	if !set.TryInsertLock(t3, owner) {
		set.Unlock(e2, owner)
		set.Unlock(e1, owner)
		return 0
	}
	if !set.TryInsertLock(t4, owner) {
		set.EraseLocked(t3, owner)
		set.Unlock(e2, owner)
		set.Unlock(e1, owner)
		return 1
	}

	// Commit: rewire the array, drop the sources, publish the targets.
	atomic.StoreUint64(&E[i], uint64(t3))
	atomic.StoreUint64(&E[j], uint64(t4))
	set.EraseLocked(e1, owner)
	set.EraseLocked(e2, owner)
	set.Unlock(t3, owner)
	set.Unlock(t4, owner)
	return 2
}

// adjListStepper is the sequential adjacency-list ES-MC baseline
// standing in for the external tools of Table 4 (see DESIGN.md):
// NetworKit-style (unsorted neighborhoods, linear-scan existence checks)
// when sorted is false, Gengraph-style (sorted neighborhoods,
// binary-search existence, shift-maintained order) when sorted is true.
// Both run the identical chain to SeqES, only on the slower data
// structure — which is exactly the comparison the paper's Table 4 makes.
type adjListStepper struct {
	m      int
	E      []graph.Edge
	src    rng.Source
	adj    [][]graph.Node
	sorted bool
}

func newAdjListStepper(g *graph.Graph, cfg core.Config, sorted bool) *adjListStepper {
	E := g.Edges()
	n := g.N()
	adj := make([][]graph.Node, n)
	deg := g.Degrees()
	for v := 0; v < n; v++ {
		adj[v] = make([]graph.Node, 0, deg[v])
	}
	for _, e := range E {
		adj[e.U()] = append(adj[e.U()], e.V())
		adj[e.V()] = append(adj[e.V()], e.U())
	}
	if sorted {
		for v := range adj {
			sort.Slice(adj[v], func(i, j int) bool { return adj[v][i] < adj[v][j] })
		}
	}
	return &adjListStepper{
		m: g.M(), E: E,
		src:    rng.NewMT19937(cfg.Seed),
		adj:    adj,
		sorted: sorted,
	}
}

func (s *adjListStepper) Step(st *switching.Stats) error {
	perStep := int64(s.m / 2)
	for a := int64(0); a < perStep; a++ {
		i, j := rng.TwoDistinct(s.src, s.m)
		e1, e2 := s.E[i], s.E[j]
		t3, t4 := graph.SwitchTargets(e1, e2, rng.Bool(s.src))
		if t3.IsLoop() || t4.IsLoop() || s.has(t3.U(), t3.V()) || s.has(t4.U(), t4.V()) {
			continue
		}
		s.remove(e1.U(), e1.V())
		s.remove(e1.V(), e1.U())
		s.remove(e2.U(), e2.V())
		s.remove(e2.V(), e2.U())
		s.insert(t3.U(), t3.V())
		s.insert(t3.V(), t3.U())
		s.insert(t4.U(), t4.V())
		s.insert(t4.V(), t4.U())
		s.E[i], s.E[j] = t3, t4
		st.Legal++
	}
	st.Attempted += perStep
	return nil
}

func (s *adjListStepper) has(u, v graph.Node) bool {
	// Query the smaller neighborhood.
	if len(s.adj[u]) > len(s.adj[v]) {
		u, v = v, u
	}
	nb := s.adj[u]
	if s.sorted {
		k := sort.Search(len(nb), func(i int) bool { return nb[i] >= v })
		return k < len(nb) && nb[k] == v
	}
	for _, w := range nb {
		if w == v {
			return true
		}
	}
	return false
}

func (s *adjListStepper) remove(u, v graph.Node) {
	nb := s.adj[u]
	if s.sorted {
		k := sort.Search(len(nb), func(i int) bool { return nb[i] >= v })
		copy(nb[k:], nb[k+1:])
		s.adj[u] = nb[:len(nb)-1]
		return
	}
	for i, w := range nb {
		if w == v {
			nb[i] = nb[len(nb)-1]
			s.adj[u] = nb[:len(nb)-1]
			return
		}
	}
	panic("experiments: adjacency removal of absent edge")
}

func (s *adjListStepper) insert(u, v graph.Node) {
	if s.sorted {
		nb := s.adj[u]
		k := sort.Search(len(nb), func(i int) bool { return nb[i] >= v })
		nb = append(nb, 0)
		copy(nb[k+1:], nb[k:])
		nb[k] = v
		s.adj[u] = nb
		return
	}
	s.adj[u] = append(s.adj[u], v)
}
