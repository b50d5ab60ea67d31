package curveball

import (
	"math"
	"math/bits"
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

// tradeScratch is per-worker trade state, padded to keep the slice
// headers of different workers off one cache line. NewEngine sizes
// every buffer for the largest possible trade, so none ever grows.
type tradeScratch struct {
	pool  []uint64 // packed slot values being redealt
	tgt   []int32  // their slot indices (u's slots, then v's)
	vpool []uint64 // v's owned neighbours (rank > k) in slot order
	vtgt  []int32  // their slot indices; -1 once found shared with u
	// tab is the shared-neighbour table of trades whose v owns more
	// than scanMax neighbours: open addressing over vpool, each entry
	// stamp<<32 | index into vpool. Each such trade advances the stamp,
	// and an entry is live only while its stamp is the current one, so
	// nothing is cleared between trades; the table is cleared when the
	// stamp wraps.
	tab   []uint64
	stamp uint32
	_     [4]uint64
}

// Engine is the parallel trade state: a cross-indexed CSR adjacency —
// each slot packs (neighbor, position of the reverse slot), so redeals
// update both endpoints by direct indexing without scans — and the
// shared round driver for scheduling and stats. A trade reads both
// endpoints' owned neighbourhoods anyway, so it tests shared neighbours
// against v's, by a scan or a per-worker table (DESIGN.md §4), instead
// of a global edge set: a redeal writes only the slots it moves, and no second copy
// of the adjacency needs keeping in sync. One GlobalStep is one global
// trade; one LocalStep is ⌊n/2⌋ uniform trades executed as
// node-disjoint batches. All randomness derives from the construction
// seed; results are bit-identical for every worker count.
type Engine struct {
	n    int
	offs []int32  // CSR offsets, len n+1
	slot []uint64 // neighbor<<32 | reverse-slot index; atomic access
	node []uint32 // slot owner: node[i] = u for offs[u] <= i < offs[u+1]
	rank []int32
	seq  bool // one worker: no trade runs concurrently, stores are plain

	drv     switching.RoundDriver
	src     rng.Source      // pairing permutations and local pair draws
	seedSrc *rng.SplitMix64 // per-batch trade-seed bases
	sc      []tradeScratch

	perm []uint32 // pairing buffer: trade k is (perm[2k], perm[2k+1])
	used []bool

	// Per-batch dispatch state and the persistent bodies reading it,
	// created once so batches allocate nothing in steady state.
	curPairs    []uint32
	curSeed     uint64
	rankSet     [1]conc.FusedPass // the driver prologue; N set per batch
	rankClearFn func(worker, lo, hi int)
	tradeFn     switching.Decide
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
	node := make([]uint32, 2*m)
	cursor := make([]int32, n)
	copy(cursor, offs[:n])
	for _, e := range g.Edges() {
		u, v := e.U(), e.V()
		su, sv := cursor[u], cursor[v]
		cursor[u]++
		cursor[v]++
		slot[su] = uint64(v)<<32 | uint64(uint32(sv))
		slot[sv] = uint64(u)<<32 | uint64(uint32(su))
		node[su], node[sv] = uint32(u), uint32(v)
	}
	e := &Engine{
		n:       n,
		offs:    offs,
		slot:    slot,
		node:    node,
		rank:    make([]int32, n),
		src:     rng.NewMT19937(seed),
		seedSrc: rng.NewSplitMix64(seed ^ 0xC3B5507A6F7C8E21),
		perm:    make([]uint32, n),
		used:    make([]bool, n),
	}
	for i := range e.rank {
		e.rank[i] = unranked
	}
	e.drv.Init(workers)
	e.seq = e.drv.Workers() == 1
	e.drv.Reserve(n/2, len(e.rankSet))
	// A trade pools at most the degrees of its two nodes, so buffers
	// sized from the maximum degree never grow: the first superstep
	// allocates nothing, whichever worker claims the hub trades.
	dmax := g.MaxDegree()
	e.sc = make([]tradeScratch, e.drv.Workers())
	for w := range e.sc {
		e.sc[w] = tradeScratch{
			pool:  make([]uint64, 2*dmax),
			tgt:   make([]int32, 2*dmax),
			vpool: make([]uint64, dmax),
			vtgt:  make([]int32, dmax),
			tab:   make([]uint64, 1<<tableBits(dmax)),
		}
	}
	e.rankSet[0].Fn = func(_, lo, hi int) {
		for x := 2 * lo; x < 2*hi; x++ {
			e.rank[e.curPairs[x]] = int32(x >> 1)
		}
	}
	e.rankClearFn = func(_, lo, hi int) {
		for _, u := range e.curPairs[2*lo : 2*hi] {
			e.rank[u] = unranked
		}
	}
	e.tradeFn = func(worker int, k int32) uint32 {
		e.trade(worker, e.curPairs[2*k], e.curPairs[2*k+1], k, e.curSeed)
		return conc.StatusLegal
	}
	return e
}

// tableBits is log2 of the shared-neighbour table capacity for c
// entries: the next power of two ≥ 2c, so probes run at load ≤ 1/2.
func tableBits(c int) int { return bits.Len(uint(max(2*c-1, 0))) }

// Close releases the engine's persistent worker gang. The engine must
// not be used afterwards.
func (e *Engine) Close() { e.drv.Release() }

// Stats returns the kernel counters accumulated over the engine's
// lifetime (Legal counts trades performed).
func (e *Engine) Stats() switching.Stats { return e.drv.Stats }

// GlobalStep performs one global trade: a uniform permutation pairs
// every node exactly once and the resulting ⌊n/2⌋ trades execute as one
// batch, read in place from the permutation (an odd node out is
// unpaired). The pairing is drawn from the sequential stream, so the
// whole step is invariant under the worker count.
func (e *Engine) GlobalStep() {
	rng.PermInto(e.src, e.perm)
	e.TradeBatch(e.perm, e.seedSrc.Uint64())
}

// LocalStep performs ⌊n/2⌋ uniformly random trades (the Curveball
// chain's superstep normalization). The trade sequence is drawn up
// front from the sequential stream, then executed as maximal
// node-disjoint batches, so batching — and therefore the result — is
// independent of the worker count.
func (e *Engine) LocalStep() {
	p := e.perm[:e.n&^1] // ⌊n/2⌋ pairs, flat
	for i := 0; i < len(p); i += 2 {
		u, v := rng.TwoDistinct(e.src, e.n)
		p[i], p[i+1] = uint32(u), uint32(v)
	}
	i := 0
	for i < len(p) {
		j := i
		for j < len(p) && !e.used[p[j]] && !e.used[p[j+1]] {
			e.used[p[j]] = true
			e.used[p[j+1]] = true
			j += 2
		}
		e.TradeBatch(p[i:j], e.seedSrc.Uint64())
		for _, u := range p[i:j] {
			e.used[u] = false
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
// ownership discipline: trade k is (pairs[2k], pairs[2k+1]), and an
// odd last node is left unpaired. Exposed so differential tests can
// drive the engine and the sequential Reference with identical inputs.
func (e *Engine) TradeBatch(pairs []uint32, stepSeed uint64) {
	nt := len(pairs) / 2
	if nt == 0 {
		return
	}
	e.curPairs, e.curSeed = pairs, stepSeed
	// Rank registration is the prologue of the fused first trade round
	// (one gang wake instead of two); trades always decide in round
	// one, so the whole batch is prologue + one round + rank clear.
	e.rankSet[0].N = nt
	e.drv.Run(e.rankSet[:], nt, e.tradeFn, nil)
	e.drv.Pool().Blocks(nt, e.rankClearFn)
	e.curPairs = nil
}

// scanMax is the largest count of v's owned neighbours that trade
// tests by a linear scan; longer lists (hubs) use the worker's
// shared-neighbour table (DESIGN.md §4).
const scanMax = 32

// owned is 1 iff rank r is later than trade k: k - r cannot overflow
// (k ≥ 0, 0 ≤ r ≤ MaxInt32) and is negative exactly when r > k.
func owned(r, k int32) int { return int(uint32(k-r) >> 31) }

// trade decides and applies trade k = (u, v): pool the neighbors
// exclusive to one side and owned by this trade (rank > k), shuffle
// them with the trade's private stream, and redeal — the first nu into
// u's slots, the rest into v's. A neighbor w of u is shared iff it is
// among v's owned neighbors: a short list is scanned, a long one is
// held in the worker's table for the duration of the trade. The
// collection passes write every slot they read and advance their
// cursors by the ownership bit, so no data-dependent branch decides
// an append. Slot reads and the reverse-slot writes are atomic because
// neighboring trades concurrently scan the same adjacency arrays
// (always slots of a different rank, so decisions are unaffected; the
// atomics only order the memory accesses). A 1-worker engine runs its
// trades one after another, so its reverse-slot writes are plain
// stores (an atomic store is a locked exchange on amd64).
func (e *Engine) trade(worker int, u, v uint32, k int32, stepSeed uint64) {
	sc := &e.sc[worker]
	rank := e.rank
	vpool, vtgt := sc.vpool, sc.vtgt
	nv := 0
	for i := e.offs[v]; i < e.offs[v+1]; i++ {
		s := atomic.LoadUint64(&e.slot[i])
		vpool[nv], vtgt[nv] = s, i
		nv += owned(rank[uint32(s>>32)], k)
	}
	vpool, vtgt = vpool[:nv], vtgt[:nv]

	pool, tgt := sc.pool, sc.tgt
	nu := 0
	if nv <= scanMax {
		for i := e.offs[u]; i < e.offs[u+1]; i++ {
			s := atomic.LoadUint64(&e.slot[i])
			w := uint32(s >> 32)
			keep := owned(rank[w], k)
			for x, t := range vpool {
				if uint32(t>>32) == w {
					vtgt[x] = -1 // fixed on both sides
					keep = 0
				}
			}
			pool[nu], tgt[nu] = s, i
			nu += keep
		}
	} else {
		sc.stamp++
		if sc.stamp == 0 {
			clear(sc.tab)
			sc.stamp = 1
		}
		stamp := uint64(sc.stamp) << 32
		b := tableBits(nv)
		shift, mask := 32-b, uint32(1)<<b-1
		tab := sc.tab
		for x, s := range vpool {
			h := uint32(s>>32) * 0x9E3779B1 >> shift
			for tab[h]&^0xFFFFFFFF == stamp {
				h = (h + 1) & mask
			}
			tab[h] = stamp | uint64(x)
		}
		for i := e.offs[u]; i < e.offs[u+1]; i++ {
			s := atomic.LoadUint64(&e.slot[i])
			w := uint32(s >> 32)
			keep := owned(rank[w], k)
			for h := w * 0x9E3779B1 >> shift; tab[h]&^0xFFFFFFFF == stamp; h = (h + 1) & mask {
				if x := uint32(tab[h]); uint32(vpool[x]>>32) == w {
					vtgt[x] = -1
					keep = 0
					break
				}
			}
			pool[nu], tgt[nu] = s, i
			nu += keep
		}
	}
	np := nu
	for x, i := range vtgt {
		pool[np], tgt[np] = vpool[x], i
		np += int(uint32(^i) >> 31) // 1 iff i ≥ 0: not shared
	}

	if np < 2 {
		return // nothing can move
	}
	pool, tgt = pool[:np], tgt[:np]
	src := rng.NewSplitMix64(tradeSeed(stepSeed, k))
	for i := np - 1; i > 0; i-- {
		j := src.IntN(i + 1) // concrete call: src stays on this stack
		pool[i], pool[j] = pool[j], pool[i]
	}
	owner := uint64(u) << 32
	for i, s := range pool {
		if i == nu {
			owner = uint64(v) << 32
		}
		t := tgt[i]
		e.slot[t] = s // owned by this trade: no other trade reads it
		if e.seq {
			e.slot[uint32(s)] = owner | uint64(uint32(t))
		} else {
			atomic.StoreUint64(&e.slot[uint32(s)], owner|uint64(uint32(t)))
		}
	}
}

// WriteEdges writes the current edge list into dst, which must have
// length m. The order (node-major, slot order) is deterministic and
// independent of the worker count. One pass over the slots reads each
// slot's owner from node; every slot's edge is written and the cursor
// advances only for u < w, so a later slot overwrites the reversed
// copies without a data-dependent branch.
func (e *Engine) WriteEdges(dst []graph.Edge) {
	i, m := 0, len(dst)
	node := e.node[:len(e.slot)]
	for x, s := range e.slot {
		u, w := uint64(node[x]), s>>32
		if i < m {
			dst[i] = graph.Edge(u<<32 | w)
		}
		i += int((u - w) >> 63) // 1 iff u < w
	}
	if i != m {
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
// same pairing (trade k is (pairs[2k], pairs[2k+1])), ownership rule and
// per-trade seeds as the parallel engine.
func (r *Reference) TradeBatch(pairs []uint32, stepSeed uint64) {
	pairs = pairs[:len(pairs)&^1]
	for x, u := range pairs {
		r.rank[u] = int32(x / 2)
	}
	for k := 0; k < len(pairs)/2; k++ {
		r.trade(pairs[2*k], pairs[2*k+1], int32(k), stepSeed)
	}
	for _, u := range pairs {
		r.rank[u] = unranked
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
