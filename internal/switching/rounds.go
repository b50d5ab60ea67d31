package switching

import (
	"time"

	"gesmc/internal/conc"
)

// paddedCounter is a per-worker counter padded to its own cache line.
type paddedCounter struct {
	v int64
	_ [7]int64
}

// decision is a deferred status store used by the pessimistic scheduler.
type decision struct {
	k  int32
	st uint32
}

// driverScratch is the per-worker round state. Each worker's slice
// headers and counter live in its own padded struct: an append to a
// delay buffer writes the header back every push, and with plain
// []delayed slices those headers pack several workers to a cache line —
// measured false sharing in multi-worker decide rounds. Padding to two
// cache lines also defeats the adjacent-line prefetcher.
type driverScratch struct {
	delayed  []int32
	deferred []decision
	legal    int64
	_        [128 - 56]byte
}

// Decide attempts to decide item k and returns conc.StatusLegal,
// conc.StatusIllegal, or conc.StatusUndecided (delay to the next
// round). worker identifies the calling goroutine for per-worker
// scratch state. A Legal decision may apply its effects immediately;
// the driver publishes the status separately so the linearization point
// other items observe stays under scheduler control.
type Decide func(worker int, k int32) uint32

// Publish makes a decision visible to other items' Decide calls —
// typically an atomic store into a status table. Chains whose items
// never consult each other's statuses pass nil.
type Publish func(k int32, st uint32)

// PreTouch is a cache pre-touch hook invoked preTouchDist items ahead
// of the decide cursor — the §5.4 software-prefetch pipeline of the
// decide rounds. It must be a pure memory hint (loads only).
type PreTouch func(worker int, k int32)

// preTouchDist is the pipeline distance of the decide-round pre-touch:
// far enough ahead to cover a memory round-trip, near enough that the
// touched lines survive until use.
const preTouchDist = 8

// RoundDriver executes the round loop of Algorithm 1 (phase 2, lines
// 7-35) for any decision kind: items start undecided, each round
// attempts every still-undecided item in parallel, and items that
// depend on a same-batch decision not yet published delay to the next
// round. The driver owns the persistent worker gang (a conc.Pool shared
// with the embedding runner's other phases) and the scratch state
// reused across supersteps; steady-state supersteps perform no heap
// allocations.
//
// Rounds dispatch through the pool's atomic-cursor chunked mode rather
// than static blocks: delayed switches cluster (they share contested
// edges), so fixed per-worker blocks of the undecided list can be
// heavily skewed in re-examination rounds.
type RoundDriver struct {
	workers int
	pool    *conc.Pool

	// Pessimistic simulates the worst-case scheduler of Theorems 2-3:
	// status publications become visible only at round barriers, so
	// every dependency on a same-round item forces a delay. Rounds
	// counted in this mode are the quantity the paper's theory bounds
	// (expected <= 4*Delta^2/m, O(1) for regular graphs). Decisions are
	// identical either way; only the round structure differs.
	Pessimistic bool

	// PreTouch, when non-nil, is invoked preTouchDist items ahead of
	// the decide cursor within each chunk. Owners set it per superstep
	// (the kernel enables it under its Prefetch flag).
	PreTouch PreTouch

	// Per-round dispatch state read by roundBody.
	cur     []int32
	decide  Decide
	publish Publish
	roundFn func(worker, lo, hi int)

	// plan is the fused prologue+first-round dispatch (RunFused):
	// pass 0 is the caller's registration phase, pass 1 the first
	// decide round, separated by a sub-barrier instead of a full
	// park/wake cycle.
	plan conc.FusedPlan

	undecided []int32
	scratch   []driverScratch

	// Stats accumulated across supersteps. flushed and peak mark the
	// totals and the largest round count since the last Flush.
	Stats
	flushed Stats
	peak    int
}

// Init prepares the driver for the given parallelism degree, creating
// the persistent worker gang. It must be called once before Run;
// workers < 1 is treated as 1. Release the gang with Release when the
// owning engine is closed (leaked drivers are reclaimed by the pool's
// finalizer).
func (d *RoundDriver) Init(workers int) {
	if workers < 1 {
		workers = 1
	}
	d.workers = workers
	d.pool = conc.NewPool(workers)
	d.scratch = make([]driverScratch, workers)
	d.roundFn = d.roundBody
	d.plan.Passes = make([]conc.FusedPass, 2)
	d.plan.Passes[1] = conc.FusedPass{Chunk: -1, Fn: d.roundFn}
}

// Workers returns the parallelism degree the driver was initialized
// with.
func (d *RoundDriver) Workers() int { return d.workers }

// Pool returns the persistent worker gang, so the embedding engine can
// run its other phases (tuple registration, apply, compaction) on the
// same long-lived goroutines.
func (d *RoundDriver) Pool() *conc.Pool { return d.pool }

// Release closes the worker gang. The driver must not be used
// afterwards. Idempotent.
func (d *RoundDriver) Release() {
	if d.pool != nil {
		d.pool.Close()
	}
}

// roundBody decides one claimed chunk of the current undecided list.
// It is created once (Init) and re-dispatched every round, so rounds
// allocate nothing.
func (d *RoundDriver) roundBody(worker, lo, hi int) {
	cur := d.cur
	touch := d.PreTouch
	sc := &d.scratch[worker]
	var legal int64
	for i := lo; i < hi; i++ {
		if touch != nil && i+preTouchDist < hi {
			touch(worker, cur[i+preTouchDist])
		}
		k := cur[i]
		st := d.decide(worker, k)
		switch st {
		case conc.StatusLegal:
			legal++
		case conc.StatusUndecided:
			sc.delayed = append(sc.delayed, k)
		}
		if st != conc.StatusUndecided && d.publish != nil {
			if d.Pessimistic {
				// Defer visibility to the round barrier: the
				// worst-case scheduler of the analysis.
				sc.deferred = append(sc.deferred, decision{k: k, st: st})
			} else {
				d.publish(k, st)
			}
		}
	}
	sc.legal += legal
}

// Run decides one superstep of n items through the round loop. decide
// is invoked at most once per item and round; publish (if non-nil)
// makes non-delayed decisions visible — immediately under the natural
// scheduler, at the round barrier under the pessimistic one. Pass
// long-lived function values (fields of the owning engine) to keep
// supersteps allocation-free.
func (d *RoundDriver) Run(n int, decide Decide, publish Publish) {
	d.run(0, nil, n, decide, publish)
}

// RunFused is Run with the caller's per-superstep prologue (phase-1
// tuple registration in Algorithm 1) folded into the first decide-round
// dispatch: both run on one gang wake separated by an in-dispatch
// sub-barrier, cutting a full park/wake cycle per superstep. The
// prologue covers [0, prologueN) in static blocks and is guaranteed
// complete on all workers before any decide executes — the same
// ordering the separate dispatches gave. prologue must be a long-lived
// function value to keep supersteps allocation-free.
func (d *RoundDriver) RunFused(prologueN int, prologue func(worker, lo, hi int), n int, decide Decide, publish Publish) {
	d.run(prologueN, prologue, n, decide, publish)
}

func (d *RoundDriver) run(proN int, proFn func(worker, lo, hi int), n int, decide Decide, publish Publish) {
	if n == 0 && proN > 0 && proFn != nil {
		// Degenerate superstep: registration with nothing to decide.
		d.pool.Blocks(proN, proFn)
		return
	}
	if n == 0 {
		return
	}
	d.decide = decide
	d.publish = publish
	undecided := d.undecided[:0]
	for k := 0; k < n; k++ {
		undecided = append(undecided, int32(k))
	}
	rounds := 0
	for len(undecided) > 0 {
		roundStart := time.Now()
		rounds++
		for i := range d.scratch {
			sc := &d.scratch[i]
			sc.delayed = sc.delayed[:0]
			sc.deferred = sc.deferred[:0]
		}
		d.cur = undecided
		if rounds == 1 && proN > 0 && proFn != nil {
			d.plan.Passes[0] = conc.FusedPass{N: proN, Fn: proFn}
			d.plan.Passes[1].N = len(undecided)
			d.pool.Fused(&d.plan)
			d.plan.Passes[0] = conc.FusedPass{}
		} else {
			d.pool.Chunked(len(undecided), 0, d.roundFn)
		}
		if d.Pessimistic && publish != nil {
			for i := range d.scratch {
				for _, dec := range d.scratch[i].deferred {
					publish(dec.k, dec.st)
				}
			}
		}
		undecided = undecided[:0]
		for i := range d.scratch {
			undecided = append(undecided, d.scratch[i].delayed...)
		}
		if rounds == 1 {
			d.FirstRoundTime += time.Since(roundStart)
		} else {
			d.LaterRoundsTime += time.Since(roundStart)
		}
	}
	d.undecided = undecided
	d.cur = nil
	d.decide = nil
	d.publish = nil

	for i := range d.scratch {
		d.Legal += d.scratch[i].legal
		d.scratch[i].legal = 0
	}
	d.InternalSupersteps++
	d.TotalRounds += int64(rounds)
	d.MaxRounds = max(d.MaxRounds, rounds)
	d.peak = max(d.peak, rounds)
}

// Flush adds the counters accumulated since the previous Flush to st,
// with MaxRounds the maximum over exactly those supersteps (Sub alone
// would carry the lifetime maximum into every increment). The
// cumulative Stats are left untouched.
func (d *RoundDriver) Flush(st *Stats) {
	inc := d.Stats.Sub(d.flushed)
	inc.MaxRounds = d.peak
	d.flushed, d.peak = d.Stats, 0
	st.Add(inc)
}
