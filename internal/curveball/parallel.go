package curveball

import (
	"math"
	"sync/atomic"

	"gesmc/internal/conc"
	"gesmc/internal/graph"
	"gesmc/internal/rng"
	"gesmc/internal/switching"
)

// This file implements the parallel trade kernel: a superstep
// formulation of Curveball trades that runs global trades (and batched
// local trades) through the same round driver as the edge-switching
// chains, with bit-identical results for every worker count.
//
// Superstep semantics (DESIGN.md §4). A batch pairs disjoint nodes;
// trade k = (u_k, v_k) and rank(w) = index of the trade containing w
// (+∞ for unpaired nodes). Every edge {a, b} is owned by the
// earlier-ranked endpoint's trade: trade k may only reassign edges to
// partners w with rank(w) > k, edges to earlier-ranked partners are
// held fixed for this batch. Under this ownership discipline each edge
// belongs to exactly one trade per batch — the global-trade property
// "every edge trades at most once" becomes exact — and a short
// induction shows every trade's candidate pool, disjointness tests, and
// write locations are fully determined by the batch-start state:
//
//   - candidate edges {u, w}, rank(w) > k, are owned by trade k itself,
//     so no other trade rewires them;
//   - a trade j rewiring an edge {u, y} with rank(y) = j < k replaces
//     u's neighbor y by j's co-member (same rank), so the rank profile
//     of every neighborhood is invariant;
//   - the disjointness test {v, w} ∈ E (rank k vs rank > k) concerns an
//     edge owned by trade k, which no earlier trade can erase or
//     create.
//
// The dependency table of Algorithm 1 therefore degenerates: every
// contested resource has a statically known unique owner, all trades
// decide Legal in round one, and the batch is one conflict-free
// parallel superstep. Each trade shuffles its pooled disjoint neighbors
// with a private SplitMix64 stream derived from (batch seed, k), so the
// result is independent of scheduling and worker count, and a
// sequential in-order replay (Reference) produces the identical graph.
//
// The move is symmetric (the reverse redeal has the same pool and the
// same probability), so uniformity of the stationary distribution is
// preserved; irreducibility follows because any single trade with an
// unrestricted pool occurs with positive probability as trade 0 of a
// global batch.

// unranked marks nodes outside the current batch: later than every
// trade, so their edges are always owned by the paired endpoint.
const unranked = int32(math.MaxInt32)

// originV flags pool entries collected from the v side. Neighbor ids
// stay below 2^28, leaving the top bits of the packed slot free.
const originV = uint64(1) << 63

// tradeScratch is per-worker pool state, padded to keep the slice
// headers of different workers off one cache line.
type tradeScratch struct {
	pool []uint64 // packed slot values, v-side entries tagged originV
	tgt  []int32  // slot indices being redealt (u's slots, then v's)
	_    [4]uint64
}

// Engine is the parallel trade state: a cross-indexed CSR adjacency —
// each slot packs (neighbor, position of the reverse slot), so redeals
// update both endpoints by direct indexing without scans — plus the
// concurrent edge set for disjointness tests, and the shared round
// driver for scheduling and stats. One GlobalStep is one global trade;
// one LocalStep is ⌊n/2⌋ uniform trades executed as node-disjoint
// batches. All randomness derives from the construction seed; results
// are bit-identical for every worker count.
type Engine struct {
	n    int
	offs []int32  // CSR offsets, len n+1
	slot []uint64 // neighbor<<32 | reverse-slot index; atomic access
	set  *conc.EdgeSet
	rank []int32

	// Prefetch enables the §5.4 pre-touch pipeline in the trade pool
	// collection: the disjointness-test bucket of a neighbor a few
	// slots ahead is touched before it is probed. Results are
	// bit-identical with the pipeline on or off.
	Prefetch bool

	drv     switching.RoundDriver
	src     rng.Source      // pairing permutations and local pair draws
	seedSrc *rng.SplitMix64 // per-batch trade-seed bases
	sc      []tradeScratch

	pairs   [][2]uint32 // batch buffer
	scratch []graph.Edge
	used    []bool

	// Per-batch dispatch state and the persistent bodies reading it,
	// created once so batches allocate nothing in steady state.
	curPairs    [][2]uint32
	curSeed     uint64
	rankSetFn   func(worker, lo, hi int)
	rankClearFn func(worker, lo, hi int)
	clearFn     func(worker, lo, hi int)
	rebuildFn   func(worker, lo, hi int)
	tradeFn     switching.Decide
	compactPlan conc.FusedPlan

	// Attempted counts trades performed (trades are never rejected, so
	// it equals the kernel's Legal counter).
	Attempted int64
}

// NewEngine compiles a simple graph into the parallel trade state.
func NewEngine(g *graph.Graph, workers int, seed uint64) *Engine {
	n := g.N()
	m := g.M()
	deg := g.Degrees()
	offs := make([]int32, n+1)
	for v := 0; v < n; v++ {
		offs[v+1] = offs[v] + int32(deg[v])
	}
	slot := make([]uint64, 2*m)
	cursor := make([]int32, n)
	copy(cursor, offs[:n])
	for _, e := range g.Edges() {
		u, v := e.U(), e.V()
		su, sv := cursor[u], cursor[v]
		cursor[u]++
		cursor[v]++
		slot[su] = uint64(v)<<32 | uint64(uint32(sv))
		slot[sv] = uint64(u)<<32 | uint64(uint32(su))
	}
	e := &Engine{
		n:       n,
		offs:    offs,
		slot:    slot,
		rank:    make([]int32, n),
		src:     rng.NewMT19937(seed),
		seedSrc: rng.NewSplitMix64(seed ^ 0xC3B5507A6F7C8E21),
		used:    make([]bool, n),
	}
	for i := range e.rank {
		e.rank[i] = unranked
	}
	e.drv.Init(workers)
	e.set = conc.NewEdgeSet(m, e.drv.Workers())
	e.set.BuildFrom(g.Edges())
	// A 1-worker gang drives the disjointness set from one goroutine:
	// drop the bucket compare-and-swaps for plain stores.
	e.set.SetSequential(e.drv.Workers() == 1)
	e.sc = make([]tradeScratch, e.drv.Workers())
	e.rankSetFn = func(_, lo, hi int) {
		for k := lo; k < hi; k++ {
			e.rank[e.curPairs[k][0]] = int32(k)
			e.rank[e.curPairs[k][1]] = int32(k)
		}
	}
	e.rankClearFn = func(_, lo, hi int) {
		for k := lo; k < hi; k++ {
			e.rank[e.curPairs[k][0]] = unranked
			e.rank[e.curPairs[k][1]] = unranked
		}
	}
	e.clearFn = func(_, lo, hi int) { e.set.ClearRange(lo, hi) }
	e.rebuildFn = func(w, lo, hi int) {
		for _, ed := range e.scratch[lo:hi] {
			e.set.InsertUnique(ed, w)
		}
	}
	e.tradeFn = func(worker int, k int32) uint32 {
		e.trade(worker, e.curPairs[k][0], e.curPairs[k][1], k, e.curSeed)
		return conc.StatusLegal
	}
	// Compaction clear+rebuild on one gang wake; the serial counter
	// reset runs as the sub-barrier hook between the passes.
	e.compactPlan.Passes = []conc.FusedPass{
		{Fn: e.clearFn, After: e.set.ResetCounts},
		{Fn: e.rebuildFn},
	}
	return e
}

// SetChunkBytes overrides the topology-derived dynamic-chunk grain of
// the trade rounds (zero or negative restores the default). Results
// are bit-identical for any grain.
func (e *Engine) SetChunkBytes(bytes int) { e.drv.Pool().SetChunkBytes(bytes) }

// Close releases the engine's persistent worker gang. The engine must
// not be used afterwards.
func (e *Engine) Close() { e.drv.Release() }

// Stats returns the kernel counters accumulated over the engine's
// lifetime (Legal counts trades performed).
func (e *Engine) Stats() switching.Stats { return e.drv.Stats }

// GlobalStep performs one global trade: a uniform permutation pairs
// every node exactly once and the resulting ⌊n/2⌋ trades execute as one
// batch. The pairing is drawn from the sequential stream, so the whole
// step is invariant under the worker count.
func (e *Engine) GlobalStep() {
	perm := rng.Perm(e.src, e.n)
	pairs := e.pairs[:0]
	for k := 0; k+1 < e.n; k += 2 {
		pairs = append(pairs, [2]uint32{perm[k], perm[k+1]})
	}
	e.pairs = pairs
	e.TradeBatch(pairs, e.seedSrc.Uint64())
}

// LocalStep performs ⌊n/2⌋ uniformly random trades (the Curveball
// chain's superstep normalization). The trade sequence is drawn up
// front from the sequential stream, then executed as maximal
// node-disjoint batches, so batching — and therefore the result — is
// independent of the worker count.
func (e *Engine) LocalStep() {
	total := e.n / 2
	pairs := e.pairs[:0]
	for i := 0; i < total; i++ {
		u, v := rng.TwoDistinct(e.src, e.n)
		pairs = append(pairs, [2]uint32{uint32(u), uint32(v)})
	}
	e.pairs = pairs
	i := 0
	for i < total {
		j := i
		for j < total && !e.used[pairs[j][0]] && !e.used[pairs[j][1]] {
			e.used[pairs[j][0]] = true
			e.used[pairs[j][1]] = true
			j++
		}
		e.TradeBatch(pairs[i:j], e.seedSrc.Uint64())
		for _, p := range pairs[i:j] {
			e.used[p[0]] = false
			e.used[p[1]] = false
		}
		i = j
	}
}

// Stepper returns the trade chain as a switching.Engine plug-in: one
// superstep is one global trade (global) or ⌊n/2⌋ uniform trades
// (Curveball's superstep normalization). Trades are never rejected, so
// Attempted equals Legal. Finish writes the edges back into dst, the
// target's edge list (length m); Release closes the worker gang.
func (e *Engine) Stepper(global bool, dst []graph.Edge) switching.Stepper {
	return &chainStepper{e: e, global: global, dst: dst}
}

type chainStepper struct {
	e      *Engine
	global bool
	dst    []graph.Edge
}

func (s *chainStepper) Step(st *switching.Stats) error {
	if s.global {
		s.e.GlobalStep()
	} else {
		s.e.LocalStep()
	}
	legal := st.Legal
	s.e.drv.Flush(st)
	st.Attempted += st.Legal - legal
	return nil
}

func (s *chainStepper) Finish() { s.e.WriteEdges(s.dst) }

func (s *chainStepper) Release() { s.e.Close() }

// tradeSeed derives the private shuffle seed of trade k within a batch.
// The full mixer decorrelates the per-trade SplitMix64 streams (a plain
// additive offset would make consecutive trades replay shifted copies
// of one stream).
func tradeSeed(stepSeed uint64, k int32) uint64 {
	return rng.Mix64(stepSeed ^ (uint64(uint32(k))+1)*0xD1B54A32D192ED03)
}

// TradeBatch executes one batch of node-disjoint trades under the
// ownership discipline. Exposed so differential tests can drive the
// engine and the sequential Reference with identical inputs.
func (e *Engine) TradeBatch(pairs [][2]uint32, stepSeed uint64) {
	nt := len(pairs)
	if nt == 0 {
		return
	}
	pool := e.drv.Pool()
	e.curPairs, e.curSeed = pairs, stepSeed
	// Rank registration is the prologue of the fused first trade round
	// (one gang wake instead of two); trades always decide in round
	// one, so the whole batch is prologue + one round + rank clear.
	e.drv.RunFused(nt, e.rankSetFn, nt, e.tradeFn, nil)
	pool.Blocks(nt, e.rankClearFn)
	e.curPairs = nil
	e.Attempted += int64(nt)

	if e.set.NeedsCompact() {
		m := len(e.slot) / 2
		if cap(e.scratch) < m {
			e.scratch = make([]graph.Edge, m)
		}
		e.scratch = e.scratch[:m]
		e.WriteEdges(e.scratch)
		e.compactPlan.Passes[0].N = e.set.Buckets()
		e.compactPlan.Passes[1].N = m
		pool.Fused(&e.compactPlan)
	}
}

// trade decides and applies trade k = (u, v): pool the neighbors
// exclusive to one side and owned by this trade (rank > k), shuffle
// them with the trade's private stream, and redeal — the first nu into
// u's slots, the rest into v's. Slot reads and writes are atomic
// because neighboring trades concurrently scan the same adjacency
// arrays (always slots of a different rank, so decisions are
// unaffected; the atomics only order the memory accesses).
func (e *Engine) trade(worker int, u, v uint32, k int32, stepSeed uint64) {
	sc := &e.sc[worker]
	pool := sc.pool[:0]
	tgt := sc.tgt[:0]
	// tradeTouchDist is the trade-loop pre-touch distance: the
	// disjointness-test bucket of the neighbor a few slots ahead is
	// pulled in before the Contains that probes it (§5.4).
	const tradeTouchDist = int32(4)
	pf := e.Prefetch
	for i := e.offs[u]; i < e.offs[u+1]; i++ {
		if pf && i+tradeTouchDist < e.offs[u+1] {
			ahead := atomic.LoadUint64(&e.slot[i+tradeTouchDist])
			e.set.Touch(graph.MakeEdge(v, uint32(ahead>>32)))
		}
		s := atomic.LoadUint64(&e.slot[i])
		w := uint32(s >> 32)
		if e.rank[w] <= k {
			continue // earlier-ranked partner (fixed) or v itself
		}
		if e.set.Contains(graph.MakeEdge(v, w)) {
			continue // shared neighbor: fixed on both sides
		}
		pool = append(pool, s)
		tgt = append(tgt, i)
	}
	nu := len(pool)
	for i := e.offs[v]; i < e.offs[v+1]; i++ {
		if pf && i+tradeTouchDist < e.offs[v+1] {
			ahead := atomic.LoadUint64(&e.slot[i+tradeTouchDist])
			e.set.Touch(graph.MakeEdge(u, uint32(ahead>>32)))
		}
		s := atomic.LoadUint64(&e.slot[i])
		w := uint32(s >> 32)
		if e.rank[w] <= k {
			continue
		}
		if e.set.Contains(graph.MakeEdge(u, w)) {
			continue
		}
		pool = append(pool, s|originV)
		tgt = append(tgt, i)
	}
	sc.pool, sc.tgt = pool, tgt // keep grown capacity

	if len(pool) < 2 {
		return // nothing can move
	}
	src := rng.NewSplitMix64(tradeSeed(stepSeed, k))
	for i := len(pool) - 1; i > 0; i-- {
		j := src.IntN(i + 1) // concrete call: src stays on this stack
		pool[i], pool[j] = pool[j], pool[i]
	}
	for i, s := range pool {
		w := uint32((s &^ originV) >> 32)
		back := uint32(s)
		oldOwner, newOwner := u, u
		if s&originV != 0 {
			oldOwner = v
		}
		if i >= nu {
			newOwner = v
		}
		atomic.StoreUint64(&e.slot[tgt[i]], uint64(w)<<32|uint64(back))
		atomic.StoreUint64(&e.slot[back], uint64(newOwner)<<32|uint64(uint32(tgt[i])))
		if oldOwner != newOwner {
			e.set.EraseUnique(graph.MakeEdge(oldOwner, w), worker)
			e.set.InsertUnique(graph.MakeEdge(newOwner, w), worker)
		}
	}
}

// WriteEdges writes the current edge list into dst, which must have
// length m. The order (node-major, slot order) is deterministic and
// independent of the worker count.
func (e *Engine) WriteEdges(dst []graph.Edge) {
	i := 0
	for u := 0; u < e.n; u++ {
		for s := e.offs[u]; s < e.offs[u+1]; s++ {
			w := uint32(e.slot[s] >> 32)
			if uint32(u) < w {
				dst[i] = graph.MakeEdge(uint32(u), w)
				i++
			}
		}
	}
	if i != len(dst) {
		panic("curveball: edge count drifted")
	}
}

// Graph materializes the current state as a fresh graph.
func (e *Engine) Graph() *graph.Graph {
	dst := make([]graph.Edge, len(e.slot)/2)
	e.WriteEdges(dst)
	return graph.NewUnchecked(e.n, dst)
}

// Reference is the sequential reference implementation of the superstep
// trade semantics: trades of a batch execute one after another in index
// order on plain data structures (adjacency slices updated in place, a
// map-backed edge set). The parallel Engine must produce bit-identical
// edge sets for every worker count; the differential tests drive both
// with the same batches and seeds.
type Reference struct {
	n    int
	adj  [][]uint32
	set  map[graph.Edge]struct{}
	rank []int32
}

// NewReference builds the reference state from a simple graph.
func NewReference(g *graph.Graph) *Reference {
	n := g.N()
	r := &Reference{
		n:    n,
		adj:  make([][]uint32, n),
		set:  make(map[graph.Edge]struct{}, g.M()),
		rank: make([]int32, n),
	}
	deg := g.Degrees()
	for v := 0; v < n; v++ {
		r.adj[v] = make([]uint32, 0, deg[v])
	}
	for _, e := range g.Edges() {
		r.adj[e.U()] = append(r.adj[e.U()], e.V())
		r.adj[e.V()] = append(r.adj[e.V()], e.U())
		r.set[e] = struct{}{}
	}
	for i := range r.rank {
		r.rank[i] = unranked
	}
	return r
}

// TradeBatch executes the batch sequentially in trade order with the
// same ownership rule and per-trade seeds as the parallel engine.
func (r *Reference) TradeBatch(pairs [][2]uint32, stepSeed uint64) {
	for k := range pairs {
		r.rank[pairs[k][0]] = int32(k)
		r.rank[pairs[k][1]] = int32(k)
	}
	for k, p := range pairs {
		r.trade(p[0], p[1], int32(k), stepSeed)
	}
	for k := range pairs {
		r.rank[pairs[k][0]] = unranked
		r.rank[pairs[k][1]] = unranked
	}
}

func (r *Reference) has(u, w uint32) bool {
	_, ok := r.set[graph.MakeEdge(u, w)]
	return ok
}

func (r *Reference) trade(u, v uint32, k int32, stepSeed uint64) {
	type cand struct {
		w    uint32
		pos  int
		side uint32 // owning node before the redeal
	}
	var pool []cand
	for i, w := range r.adj[u] {
		if r.rank[w] <= k || r.has(v, w) {
			continue
		}
		pool = append(pool, cand{w: w, pos: i, side: u})
	}
	nu := len(pool)
	for i, w := range r.adj[v] {
		if r.rank[w] <= k || r.has(u, w) {
			continue
		}
		pool = append(pool, cand{w: w, pos: i, side: v})
	}
	if len(pool) < 2 {
		return
	}
	// The slot positions are redealt in collection order; only the
	// occupants shuffle, exactly as in the parallel engine.
	slots := make([]cand, len(pool))
	copy(slots, pool)
	src := rng.NewSplitMix64(tradeSeed(stepSeed, k))
	for i := len(pool) - 1; i > 0; i-- {
		j := src.IntN(i + 1)
		pool[i], pool[j] = pool[j], pool[i]
	}
	for i, c := range pool {
		newOwner := u
		if i >= nu {
			newOwner = v
		}
		slotOwner := slots[i].side
		r.adj[slotOwner][slots[i].pos] = c.w
		if c.side != newOwner {
			delete(r.set, graph.MakeEdge(c.side, c.w))
			r.set[graph.MakeEdge(newOwner, c.w)] = struct{}{}
			// Update w's view of the edge in place (unique occurrence).
			for j, x := range r.adj[c.w] {
				if x == c.side {
					r.adj[c.w][j] = newOwner
					break
				}
			}
		}
	}
}

// Edges returns the reference's current edges sorted canonically.
func (r *Reference) Edges() []graph.Edge {
	out := make([]graph.Edge, 0, len(r.set))
	for u := 0; u < r.n; u++ {
		for _, w := range r.adj[u] {
			if uint32(u) < w {
				out = append(out, graph.MakeEdge(uint32(u), w))
			}
		}
	}
	return out
}
