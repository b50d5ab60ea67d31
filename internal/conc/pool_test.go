package conc

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// expectPanic asserts that fn panics: the pool's contracts are enforced
// by panics, which must actually fire on misuse rather than corrupt
// state silently.
func expectPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	fn()
}

// TestPoolBlocksCoversAllWorkers: a Blocks dispatch large enough for
// the gang calls the body exactly once on every worker.
func TestPoolBlocksCoversAllWorkers(t *testing.T) {
	for _, p := range []int{1, 2, 4, 8} {
		pool := NewPool(p)
		counts := make([]atomic.Int32, p)
		for rep := 0; rep < 3; rep++ { // reuse across dispatches
			pool.Blocks(1<<10, func(w, _, _ int) { counts[w].Add(1) })
		}
		for w := range counts {
			if got := counts[w].Load(); got != 3 {
				t.Fatalf("P=%d: worker %d ran %d times, want 3", p, w, got)
			}
		}
		pool.Close()
	}
}

func TestPoolBlocksPartition(t *testing.T) {
	for _, p := range []int{1, 3, 8} {
		pool := NewPool(p)
		for _, n := range []int{0, 1, 5, 31, 32, 33, 1000} {
			hits := make([]atomic.Int32, n+1)
			pool.Blocks(n, func(w, lo, hi int) {
				if lo >= hi {
					t.Errorf("P=%d n=%d: empty range dispatched [%d,%d)", p, n, lo, hi)
				}
				for i := lo; i < hi; i++ {
					hits[i].Add(1)
				}
			})
			for i := 0; i < n; i++ {
				if hits[i].Load() != 1 {
					t.Fatalf("P=%d n=%d: index %d covered %d times", p, n, i, hits[i].Load())
				}
			}
		}
		pool.Close()
	}
}

func TestPoolChunkedCoversAll(t *testing.T) {
	for _, p := range []int{1, 4} {
		pool := NewPool(p)
		const n = 10000
		hits := make([]atomic.Int32, n)
		// Skewed per-item work: chunk claiming must still cover every
		// index exactly once.
		pool.Fused(&FusedPlan{Passes: []FusedPass{{N: n, Chunk: 64, Fn: func(w, lo, hi int) {
			for i := lo; i < hi; i++ {
				if i%997 == 0 {
					time.Sleep(time.Microsecond)
				}
				hits[i].Add(1)
			}
		}}}})
		for i := range hits {
			if hits[i].Load() != 1 {
				t.Fatalf("P=%d: index %d covered %d times", p, i, hits[i].Load())
			}
		}
		pool.Close()
	}
}

func TestPoolPanicPropagation(t *testing.T) {
	for _, culprit := range []int{0, 2} { // coordinator and parked worker
		pool := NewPool(4)
		expectPanic(t, "worker panic", func() {
			pool.Blocks(1<<10, func(w, _, _ int) {
				if w == culprit {
					panic("boom")
				}
			})
		})
		// The pool must stay usable after a propagated panic.
		var ran atomic.Int32
		pool.Blocks(1<<10, func(int, int, int) { ran.Add(1) })
		if ran.Load() != 4 {
			t.Fatalf("culprit=%d: pool broken after panic: %d workers ran", culprit, ran.Load())
		}
		pool.Close()
	}
}

func TestPoolNestedDispatchPanics(t *testing.T) {
	for _, p := range []int{1, 4} {
		pool := NewPool(p)
		expectPanic(t, "nested dispatch", func() {
			pool.Blocks(1<<10, func(w, _, _ int) {
				if w == 0 {
					pool.Blocks(8, func(int, int, int) {})
				}
			})
		})
		pool.Close()
	}
}

func TestPoolDispatchAfterClosePanics(t *testing.T) {
	pool := NewPool(2)
	pool.Close()
	pool.Close() // idempotent
	expectPanic(t, "dispatch after Close", func() {
		pool.Blocks(1<<10, func(int, int, int) {})
	})
}

// TestPoolReleaseEndsWorkers asserts Close actually parks the gang for
// good: creating and closing many pools must not accumulate goroutines
// (the reuse-across-engines lifecycle).
func TestPoolReleaseEndsWorkers(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		pool := NewPool(4)
		pool.Blocks(1<<10, func(int, int, int) {})
		pool.Close()
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		runtime.Gosched()
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestPoolInlineSmallPlans pins the inline rule on a gang: a plan of
// at most serialCutoff items in total runs on the caller as worker 0,
// one call per pass over its whole range, After hooks in pass order;
// one item more wakes the gang.
func TestPoolInlineSmallPlans(t *testing.T) {
	pool := NewPool(4)
	defer pool.Close()
	var mu sync.Mutex
	var events []string
	record := func(format string, args ...any) {
		mu.Lock()
		events = append(events, fmt.Sprintf(format, args...))
		mu.Unlock()
	}
	body := func(pass string) func(w, lo, hi int) {
		return func(w, lo, hi int) { record("%s w%d [%d,%d)", pass, w, lo, hi) }
	}
	for _, n := range []int{1, 5, 31, serialCutoff} {
		events = nil
		pool.Blocks(n, body("b"))
		if want := fmt.Sprintf("b w0 [0,%d)", n); len(events) != 1 || events[0] != want {
			t.Fatalf("Blocks(%d) calls %q, want [%q]", n, events, want)
		}
	}

	events = nil
	pool.Fused(&FusedPlan{Passes: []FusedPass{
		{N: 20, Fn: body("p0"), After: func() { record("after0") }},
		{N: serialCutoff - 20, Chunk: 4, Fn: body("p1"), After: func() { record("after1") }},
	}})
	want := []string{"p0 w0 [0,20)", "after0", fmt.Sprintf("p1 w0 [0,%d)", serialCutoff-20), "after1"}
	if !slices.Equal(events, want) {
		t.Fatalf("two-pass plan ran %q, want %q", events, want)
	}

	events = nil
	pool.Blocks(serialCutoff+1, body("b"))
	if len(events) < 2 {
		t.Fatalf("Blocks(%d) ran inline: %q", serialCutoff+1, events)
	}
}

// TestPoolLeakedOwnerReleased: a pool dropped without Close, whose last
// Blocks body captured the pool's owner, must still be finalized — the
// parked workers must not keep that body, and through it the pool,
// reachable — and its parked goroutines must exit.
func TestPoolLeakedOwnerReleased(t *testing.T) {
	before := runtime.NumGoroutine()
	func() {
		type owner struct {
			pool  *Pool
			items atomic.Int64
		}
		o := &owner{pool: NewPool(4)}
		o.pool.Blocks(1<<10, func(_, lo, hi int) { o.items.Add(int64(hi - lo)) })
		if o.items.Load() != 1<<10 {
			t.Fatalf("covered %d items", o.items.Load())
		}
	}()
	for round := 0; round < 50; round++ {
		runtime.GC()
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("leaked pool's workers still parked: %d goroutines before, %d after",
		before, runtime.NumGoroutine())
}

// parkedWorkers counts the workers blocked, or about to block, on
// their start channel.
func (p *Pool) parkedWorkers() int {
	n := 0
	for i := range p.sh.slots {
		if p.sh.slots[i].parked.Load() != 0 {
			n++
		}
	}
	return n
}

// TestPoolIdleGangParks: an idle gang parks every worker within
// parkAfter of its last dispatch (plus a scheduling margin), so an
// idle engine holds no processor.
func TestPoolIdleGangParks(t *testing.T) {
	const margin = 200 * time.Millisecond
	for _, w := range []int{2, 3, 8} {
		pool := NewPool(w)
		for range 3 {
			pool.Blocks(1<<10, func(int, int, int) {})
			start := time.Now()
			for pool.parkedWorkers() != w-1 {
				if time.Since(start) > parkAfter+margin {
					t.Fatalf("w=%d: %d of %d workers parked %v after the last dispatch",
						w, pool.parkedWorkers(), w-1, time.Since(start))
				}
				time.Sleep(50 * time.Microsecond)
			}
		}
		pool.Close()
	}
}

// TestPoolSpinParkStress drives both wake-up handshakes through every
// waiting state. Dispatches of random shape (inline, Blocks, Fused
// plans of one to three static or chunked passes, some with After
// hooks) are separated by busy gaps drawn from {0, parkAfter/2,
// parkAfter, 2·parkAfter}, so a dispatch meets its workers polling,
// announcing a park or parked, and the caller's completion wait meets
// the same boundary through long worker shares. Every index must run
// exactly once per dispatch; each pool is closed after a random
// number of dispatches and a random gap, and no worker may outlive
// its pool. -short runs a quarter of the dispatches.
func TestPoolSpinParkStress(t *testing.T) {
	dispatches := 10_000
	if testing.Short() {
		dispatches /= 4
	}
	before := runtime.NumGoroutine()
	rnd := rand.New(rand.NewPCG(1, 2))
	gap := func() time.Duration {
		if rnd.IntN(32) != 0 {
			return 0
		}
		return [...]time.Duration{0, parkAfter / 2, parkAfter, 2 * parkAfter}[rnd.IntN(4)]
	}
	busy := func(d time.Duration) {
		for start := time.Now(); time.Since(start) < d; {
		}
	}
	const maxN = 128
	var counts [3][maxN]atomic.Int32
	var totals [3]atomic.Int64
	var bad atomic.Int64
	body := func(pass int, slow bool) func(w, lo, hi int) {
		return func(w, lo, hi int) {
			for i := lo; i < hi; i++ {
				counts[pass][i].Add(1)
			}
			totals[pass].Add(int64(hi - lo))
			if slow && w == 1 {
				busy(parkAfter + parkAfter/4) // outlasts the caller's poll budget
			}
		}
	}
	for _, w := range []int{2, 3, 8} {
		for done := 0; done < dispatches; {
			pool := NewPool(w)
			for k := 1 + rnd.IntN(2000); k > 0 && done < dispatches; k-- {
				busy(gap())
				passes := 1 + rnd.IntN(3)
				plan := &FusedPlan{Passes: make([]FusedPass, passes)}
				for pi := range plan.Passes {
					n := 1 + rnd.IntN(maxN)
					if rnd.IntN(4) == 0 {
						n = 1 + rnd.IntN(serialCutoff/passes) // the plan may run inline
					}
					ps := FusedPass{N: n, Chunk: [...]int{0, 7, -1}[rnd.IntN(3)], Fn: body(pi, rnd.IntN(128) == 0)}
					if rnd.IntN(2) == 0 {
						ps.After = func() {
							if totals[pi].Load() != int64(n) {
								bad.Add(1)
							}
						}
					}
					plan.Passes[pi] = ps
				}
				if passes == 1 && plan.Passes[0].Chunk == 0 && plan.Passes[0].After == nil {
					pool.Blocks(plan.Passes[0].N, plan.Passes[0].Fn)
				} else {
					pool.Fused(plan)
				}
				done++
				for pi, ps := range plan.Passes {
					for i := range ps.N {
						if c := counts[pi][i].Swap(0); c != 1 {
							t.Fatalf("w=%d dispatch %d pass %d: index %d ran %d times", w, done, pi, i, c)
						}
					}
					totals[pi].Store(0)
				}
				if bad.Load() != 0 {
					t.Fatalf("w=%d dispatch %d: an After hook ran before its pass finished", w, done)
				}
			}
			busy(gap())
			pool.Close()
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("workers outlived their pools: %d goroutines before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(time.Millisecond)
	}
}
