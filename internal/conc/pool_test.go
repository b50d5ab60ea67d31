package conc

import (
	"fmt"
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
