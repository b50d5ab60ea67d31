// Package conc provides the shared-memory concurrent building blocks of
// the parallel switching algorithms: the per-superstep dependency table
// of Algorithm 1, which in a global superstep indexes every edge of the
// graph through survivor tuples and, behind a tuple-count filter,
// chains and probes only the keys that more than one tuple names; and
// the persistent worker gang that runs every parallel loop.
package conc

import (
	"runtime"
	"sync/atomic"
	"time"
)

// Pool is a persistent gang of worker goroutines. A kernel superstep
// issues several parallel-for phases and a chain issues thousands of
// supersteps, so goroutine creation and WaitGroup churn per phase would
// dominate the barrier cost the paper's analysis assumes to be cheap.
// The pool's workers 1..P-1 live as long as the pool; the caller
// participates as worker 0. Waiting is spin-then-park: an idle worker
// polls a dispatch generation counter, and the caller polls the
// completion count, for parkAfter before blocking on a channel, so a
// dispatch that follows the last one within that budget costs an
// atomic increment and wakes no goroutine, and a dispatch costs
// nothing at all at P=1.
//
// Every dispatch runs a FusedPlan: a sequence of passes, each a
// parallel-for over [0, N) partitioned into static blocks or
// cursor-claimed chunks, separated by in-dispatch sub-barriers
// (Fused). Blocks is the one-pass, static-block form. A dispatch runs
// inline on the caller as worker 0 — one call per pass over its whole
// [0, N), After hooks in order — when P = 1 or when the plan's passes
// total at most serialCutoff items: waking the gang costs ~µs, which
// dwarfs a handful of items.
//
// Dispatch state is published via plain fields before the generation
// increment, whose atomic order publishes them to every worker. Bodies
// and plans should be long-lived values (fields on the owning engine) — then a
// steady-state dispatch performs zero heap allocations, which the
// kernel's allocation-regression test asserts.
//
// Grain sizing is topology-aware: at construction the pool derives a
// default chunk grain from the per-core L2 share (capped by the LLC
// share per worker), so cursor-claimed chunks keep their working set
// cache-resident instead of using naive n/P-derived sizes. Static
// block boundaries are aligned to 16-item multiples so adjacent
// workers writing item-indexed arrays do not false-share the boundary
// cache lines.
//
// Concurrency contract: a Pool serializes its dispatches. Calling
// Blocks or Fused from inside a body (nested use), or from two
// goroutines at once, panics. Close releases the workers; it is
// idempotent, and a finalizer releases them when a pool owner leaks
// without closing, so worker goroutines never outlive the pool's
// reachability.
//
// Wake-up handshake. A worker that has polled for parkAfter announces
// in its parked word the generation it awaits, re-reads the
// generation, and blocks on its start channel unless the generation
// moved and it can clear its own announcement again. The caller bumps
// the generation to g, then sends to each worker whose announcement of
// g it clears. Both sides write one atomic and then read the other's,
// so (the atomics being sequentially consistent) at least one side
// sees the other; whichever CAS clears the announcement decides
// whether a send happens, so a wake-up is neither lost nor doubled,
// and the one-slot channels never block the sender. The announcement
// names the generation, not just "parked", because a worker whose
// share is short can finish dispatch g and park again for g+1 while
// the caller is still inside g's wake loop; a flag would let that
// late CAS wake the worker for a dispatch it has already run. The
// completion wait is the mirror image: the caller announces in
// waiting the generation it parks on and re-reads pending; the last
// worker sends on done only if it clears that same generation.
type Pool struct {
	sh *poolShared
}

const cacheLine = 64

// poolShared is the worker-visible state. It is split from Pool so the
// worker goroutines keep only poolShared alive: the outer Pool stays
// collectable, letting its finalizer release the gang when the owner
// forgets to Close. The contended atomics (chunk cursor, completion
// count, sub-barrier state) are padded onto private cache lines so the
// cursor traffic of a chunked pass does not invalidate the read-mostly
// dispatch fields every worker re-reads.
type poolShared struct {
	workers int
	grain   int  // default chunk size in items, topology-derived
	spin    bool // waiters poll before parking: the gang fits GOMAXPROCS

	// plan is the current dispatch, written by the coordinator before
	// the generation increment and read-only during a dispatch. blocks
	// is the one-pass plan Blocks fills.
	plan   *FusedPlan
	blocks FusedPlan

	slots []workerSlot
	done  chan struct{} // capacity 1: the last worker wakes a parked caller

	panicV  atomic.Pointer[poolPanic]
	running atomic.Bool
	closed  atomic.Bool

	_       [cacheLine]byte
	gen     atomic.Uint64 // dispatch generation, bumped by each gang dispatch and by release
	_       [cacheLine - 8]byte
	waiting atomic.Uint64 // generation the caller parked on awaiting completion, else 0
	_       [cacheLine - 8]byte
	cursor  atomic.Int64 // chunked passes: next unclaimed index
	_       [cacheLine - 8]byte
	pending atomic.Int32
	_       [cacheLine - 4]byte
	barIn   atomic.Int32 // sub-barrier: arrivals
	_       [cacheLine - 4]byte
	barGen  atomic.Uint32 // sub-barrier: release generation
	_       [cacheLine - 4]byte
}

// workerSlot is one worker's wake-up state, on its own cache line.
type workerSlot struct {
	parked atomic.Uint64 // generation the parked worker awaits, else 0
	start  chan struct{} // capacity 1
	_      [cacheLine - 16]byte
}

type poolPanic struct{ v any }

// parkAfter is how long an idle worker, or a caller awaiting its gang,
// polls before it blocks on a channel. Between two gang dispatches of
// one ParGlobalES superstep the caller works alone for 0.3–130 µs
// (w = 2 on the burn-in target: Permute's prefix sum, the ℓ draw, the
// undecided-list fill, the delayed-list collection; DESIGN §5), so the
// gang stays awake through a chain's supersteps, while an idle gang —
// between Sample calls, or a pooled engine between requests — parks
// about a millisecond after its last dispatch.
//
// A gang of more workers than GOMAXPROCS (at NewPool) parks at once: a
// yielding poller goes to the global run queue, from which its
// processor takes it straight back, so that processor stops stealing
// the gang's runnable workers from the other processors' local queues.
const parkAfter = time.Millisecond

// spinPolls is how many polls a waiter makes before each further poll
// yields its processor (runtime.Gosched), so oversubscribed gangs
// (P > cores) still run their working goroutines.
const spinPolls = 256

// spinner is the poll schedule of a waiter that parks: spinPolls busy
// polls, then yielding polls until parkAfter has passed since the
// first yield.
type spinner struct {
	polls int
	since time.Time
}

// next reports whether the waiter should poll again, yielding first
// once past the busy polls; false means the budget is spent.
func (s *spinner) next() bool {
	if s.polls++; s.polls <= spinPolls {
		return true
	}
	if now := time.Now(); s.since.IsZero() {
		s.since = now
	} else if now.Sub(s.since) >= parkAfter {
		return false
	}
	runtime.Gosched()
	return true
}

// chunkItemBytes is the assumed per-item cache footprint used to convert
// a byte budget into a chunk length: the kernel's decide items touch a
// handful of scattered lines (the switch's tuple keys, the filter
// words of its targets, the chains of shared targets and, in a prefix
// superstep, edge-set buckets), of which roughly one line per item is
// unique to the chunk.
const chunkItemBytes = 64

// defaultGrain derives the chunk grain from the cache topology: a chunk
// should fill a fraction of the per-core private L2 (staying resident
// across the claim), without the gang's combined claims exceeding their
// LLC share.
func defaultGrain(workers int) int {
	if workers < 1 {
		workers = 1
	}
	t := Topology()
	budget := t.L2Bytes / 4
	if llcShare := t.LLCBytes / (2 * workers); budget > llcShare && llcShare > 0 {
		budget = llcShare
	}
	return max(budget/chunkItemBytes, serialCutoff)
}

// NewPool starts a gang of workers goroutines (worker ids 0..workers-1,
// id 0 being the caller of each dispatch). workers < 1 is treated as 1;
// a 1-worker pool spawns no goroutines and dispatches inline.
func NewPool(workers int) *Pool {
	if workers < 1 {
		workers = 1
	}
	sh := &poolShared{
		workers: workers,
		grain:   defaultGrain(workers),
		spin:    workers <= runtime.GOMAXPROCS(0),
		blocks:  FusedPlan{Passes: make([]FusedPass, 1)},
		done:    make(chan struct{}, 1),
	}
	sh.slots = make([]workerSlot, workers-1)
	for i := range sh.slots {
		sh.slots[i].start = make(chan struct{}, 1)
		go sh.work(i + 1)
	}
	p := &Pool{sh: sh}
	if workers > 1 {
		runtime.SetFinalizer(p, func(p *Pool) { p.sh.release() })
	}
	return p
}

// Workers returns the gang size P.
func (p *Pool) Workers() int { return p.sh.workers }

// Close releases the worker goroutines. Idempotent; dispatching after
// Close panics. Closing is optional (a finalizer releases leaked
// pools), but deterministic release is good hygiene for engines that
// create many pools.
func (p *Pool) Close() {
	if p.sh.running.Load() {
		panic("conc: Pool.Close during dispatch")
	}
	p.sh.release()
	runtime.SetFinalizer(p, nil)
}

// release ends the workers: a generation bump they see with closed
// set, and a wake-up for those already parked.
func (sh *poolShared) release() {
	if sh.closed.CompareAndSwap(false, true) {
		sh.wake(sh.gen.Add(1))
	}
}

// wake sends a wake-up to every worker parked awaiting generation g,
// which the caller has just published (handshake in Pool).
func (sh *poolShared) wake(g uint64) {
	for i := range sh.slots {
		s := &sh.slots[i]
		if s.parked.Load() == g && s.parked.CompareAndSwap(g, 0) {
			s.start <- struct{}{}
		}
	}
}

// work is the worker loop: await the next generation, run its
// dispatch, and as the last worker to finish wake the caller if it
// parked on that generation.
func (sh *poolShared) work(w int) {
	slot := &sh.slots[w-1]
	for g := uint64(0); ; {
		g = sh.awaitDispatch(slot, g)
		if sh.closed.Load() {
			return
		}
		sh.fusedRun(w, false)
		if sh.pending.Add(-1) == 0 && sh.waiting.CompareAndSwap(g, 0) {
			sh.done <- struct{}{}
		}
	}
}

// awaitDispatch returns the first generation after seen: it polls
// gen, then parks on the worker's start channel (handshake in Pool).
// The caller cannot bump gen again before this worker finishes the
// dispatch, so the value read after a wake-up is that dispatch's.
func (sh *poolShared) awaitDispatch(slot *workerSlot, seen uint64) uint64 {
	for sp := (spinner{}); sh.spin; {
		if g := sh.gen.Load(); g != seen {
			return g
		}
		if !sp.next() {
			break
		}
	}
	slot.parked.Store(seen + 1)
	if g := sh.gen.Load(); g != seen && slot.parked.CompareAndSwap(seen+1, 0) {
		return g
	}
	<-slot.start
	return sh.gen.Load()
}

// awaitGang waits until every worker has finished dispatch g: it
// polls pending, then parks on done (handshake in Pool).
func (sh *poolShared) awaitGang(g uint64) {
	for sp := (spinner{}); sh.pending.Load() != 0; {
		if !sh.spin || !sp.next() {
			sh.waiting.Store(g)
			if sh.pending.Load() != 0 || !sh.waiting.CompareAndSwap(g, 0) {
				<-sh.done
			}
			return
		}
	}
}

// alignItems is the item granularity static block boundaries snap to:
// 16 items cover a full cache line for 4-byte items, so two workers
// never write the same line at a block boundary.
const alignItems = 16

// blockRange computes worker w's static block of [0, n): contiguous
// blocks differing by at most one, with boundaries aligned to
// alignItems when the blocks are large enough that alignment cannot
// starve a worker.
func blockRange(n, w, workers int) (int, int) {
	lo := n * w / workers
	hi := n * (w + 1) / workers
	if n >= workers*alignItems*4 {
		lo = (lo + alignItems - 1) &^ (alignItems - 1)
		hi = (hi + alignItems - 1) &^ (alignItems - 1)
		if lo > n {
			lo = n
		}
		if hi > n || w == workers-1 {
			hi = n
		}
	}
	return lo, hi
}

// autoChunk sizes a cursor-claimed chunk for an n-item space: the
// topology-derived grain, shrunk so every worker still gets a few
// claims for load balancing, and never below the serial cutoff.
func (sh *poolShared) autoChunk(n int) int {
	g := sh.grain
	if balance := n / (4 * sh.workers); g > balance {
		g = balance
	}
	if g < serialCutoff {
		g = serialCutoff
	}
	return g
}

// acquire takes the dispatch lock before any dispatch state is
// written: nested or concurrent dispatches must be rejected without
// touching fields the idle workers may be reading.
func (sh *poolShared) acquire() {
	if !sh.running.CompareAndSwap(false, true) {
		panic("conc: nested or concurrent Pool dispatch")
	}
	if sh.closed.Load() {
		sh.running.Store(false)
		panic("conc: Pool dispatch after Close")
	}
}

// serialCutoff is the plan size, in items summed over its passes, at
// or below which a dispatch runs inline on the calling goroutine: the
// typical re-examination rounds of the superstep kernel decide only a
// few delayed switches, far too few to pay for a gang wake.
const serialCutoff = 32

// inline reports whether plan runs on the caller alone.
func (sh *poolShared) inline(plan *FusedPlan) bool {
	if sh.workers == 1 {
		return true
	}
	items := 0
	for i := range plan.Passes {
		items += max(plan.Passes[i].N, 0)
	}
	return items <= serialCutoff
}

// dispatch runs plan as one gang wake (or inline), waits for the
// completion barrier, releases the dispatch lock, and re-raises the
// first recorded panic. The caller holds the dispatch lock (acquire).
// Bodies never unwind through here (fusedPass and runAfter recover),
// so the cleanup below always runs.
func (sh *poolShared) dispatch(plan *FusedPlan) {
	sh.plan = plan
	if sh.inline(plan) {
		sh.fusedRun(0, true)
	} else {
		sh.cursor.Store(0)
		sh.pending.Store(int32(sh.workers - 1))
		g := sh.gen.Add(1)
		sh.wake(g)
		sh.fusedRun(0, false)
		sh.awaitGang(g)
	}
	// The workers keep sh alive; a retained body would keep the
	// pool's owner, and so the pool, reachable and its finalizer idle.
	sh.plan = nil
	sh.blocks.Passes[0].Fn = nil
	sh.running.Store(false)
	if pv := sh.panicV.Swap(nil); pv != nil {
		panic(pv.v)
	}
}

// Blocks partitions [0, n) into at most P contiguous blocks differing
// in size by at most one (boundaries aligned to 16 items on large
// inputs) and runs fn on each block in parallel: a one-pass plan of
// static blocks. Workers whose block is empty skip the call.
func (p *Pool) Blocks(n int, fn func(worker, lo, hi int)) {
	if n <= 0 {
		return
	}
	// Pin p: its finalizer must not release the gang mid-dispatch once
	// the method body no longer references p itself.
	defer runtime.KeepAlive(p)
	sh := p.sh
	sh.acquire()
	sh.blocks.Passes[0] = FusedPass{N: n, Fn: fn}
	sh.dispatch(&sh.blocks)
}

// FusedPass is one pass of a dispatch: an iteration space, the body to
// run over it, and how to partition it. After, when non-nil, runs on
// exactly one worker at the pass's trailing sub-barrier — after every
// worker has finished the pass, before any worker starts the next —
// for short serial fix-ups (counter resets) that would otherwise cost
// a full dispatch.
type FusedPass struct {
	// N is the iteration space [0, N). N <= 0 skips the body (After
	// still runs).
	N int
	// Chunk selects the partitioning: 0 = static aligned blocks,
	// > 0 = cursor-claimed chunks of this size, < 0 = cursor-claimed
	// chunks of the pool's topology-derived grain.
	Chunk int
	// Fn is the pass body.
	Fn func(worker, lo, hi int)
	// After runs serially at the pass's sub-barrier.
	After func()
}

// FusedPlan is a reusable sequence of passes executed by one dispatch.
// Owners build it once (the passes slice is read, never mutated by the
// pool) so steady-state dispatches allocate nothing.
type FusedPlan struct {
	Passes []FusedPass
}

// Fused executes the plan's passes in order as ONE dispatch: the gang
// is woken once, passes are separated by internal sense-reversing
// sub-barriers (spin-then-yield), and the completion barrier fires
// after the last pass. Relative to dispatching each pass separately
// this removes a full wake/park cycle per fused boundary — the
// dominant superstep cost once phase bodies are cheap — while
// preserving the all-of-pass-i-before-any-of-pass-i+1 ordering that
// the phases of Algorithm 1 require.
//
// A panic in a pass body or After hook is recorded, the pass is
// abandoned by that worker, sub-barriers continue to operate (so the
// gang cannot deadlock), and the first panic is re-raised at the
// completion barrier.
func (p *Pool) Fused(plan *FusedPlan) {
	if len(plan.Passes) == 0 {
		return
	}
	defer runtime.KeepAlive(p) // see Blocks
	sh := p.sh
	sh.acquire()
	sh.dispatch(plan)
}

// fusedRun is the per-worker loop of a dispatch. solo runs the whole
// plan on the caller: each pass over its whole iteration space, then
// its After hook, with no sub-barriers.
func (sh *poolShared) fusedRun(w int, solo bool) {
	passes := sh.plan.Passes
	last := len(passes) - 1
	for pi := range passes {
		ps := &passes[pi]
		if ps.Fn != nil && ps.N > 0 {
			sh.fusedPass(w, ps, solo)
		}
		switch {
		case solo:
			if ps.After != nil {
				sh.runAfter(ps.After)
			}
		// The final sub-barrier is subsumed by the completion barrier
		// unless an After hook needs the all-finished point.
		case pi < last || ps.After != nil:
			sh.fusedBarrier(ps.After)
		}
	}
}

// fusedPass runs worker w's share of one pass (all of it when solo),
// recovering panics so the worker still reaches the trailing
// sub-barrier.
func (sh *poolShared) fusedPass(w int, ps *FusedPass, solo bool) {
	defer func() {
		if r := recover(); r != nil {
			sh.panicV.CompareAndSwap(nil, &poolPanic{v: r})
		}
	}()
	if solo {
		ps.Fn(w, 0, ps.N)
		return
	}
	if ps.Chunk == 0 {
		if lo, hi := blockRange(ps.N, w, sh.workers); lo < hi {
			ps.Fn(w, lo, hi)
		}
		return
	}
	chunk := ps.Chunk
	if chunk < 0 {
		chunk = sh.autoChunk(ps.N)
	}
	for {
		hi := int(sh.cursor.Add(int64(chunk)))
		lo := hi - chunk
		if lo >= ps.N {
			return
		}
		ps.Fn(w, lo, min(hi, ps.N))
	}
}

// fusedBarrier is the sense-reversing sub-barrier between passes. The
// last arriver (the leader) runs the After hook, resets the shared
// cursor for the next pass, and releases the generation; the others
// spin briefly and then yield, so oversubscribed gangs (P > cores)
// still make progress.
func (sh *poolShared) fusedBarrier(after func()) {
	gen := sh.barGen.Load()
	if sh.barIn.Add(1) == int32(sh.workers) {
		sh.barIn.Store(0)
		if after != nil {
			sh.runAfter(after)
		}
		sh.cursor.Store(0)
		sh.barGen.Add(1)
	} else {
		for spins := 0; sh.barGen.Load() == gen; spins++ {
			if spins > spinPolls {
				runtime.Gosched()
			}
		}
	}
}

func (sh *poolShared) runAfter(after func()) {
	defer func() {
		if r := recover(); r != nil {
			sh.panicV.CompareAndSwap(nil, &poolPanic{v: r})
		}
	}()
	after()
}
