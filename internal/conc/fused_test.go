package conc

import (
	"sync/atomic"
	"testing"
)

// TestFusedPassOrdering asserts the sub-barrier contract: every item of
// pass i is processed before any item of pass i+1, for every
// partitioning mix and worker count.
func TestFusedPassOrdering(t *testing.T) {
	for _, w := range []int{1, 2, 4, 8} {
		p := NewPool(w)
		const n = 10_000
		var pass1Done atomic.Int64
		var violations atomic.Int64
		marks := make([]int32, n)
		plan := &FusedPlan{Passes: []FusedPass{
			{N: n, Fn: func(_, lo, hi int) {
				for i := lo; i < hi; i++ {
					atomic.StoreInt32(&marks[i], 1)
				}
				pass1Done.Add(int64(hi - lo))
			}},
			{N: n, Chunk: 64, Fn: func(_, lo, hi int) {
				if pass1Done.Load() != n {
					violations.Add(1)
				}
				for i := lo; i < hi; i++ {
					if atomic.LoadInt32(&marks[i]) != 1 {
						violations.Add(1)
					}
					atomic.AddInt32(&marks[i], 1)
				}
			}},
		}}
		p.Fused(plan)
		if violations.Load() != 0 {
			t.Fatalf("w=%d: pass 2 observed incomplete pass 1 (%d violations)", w, violations.Load())
		}
		for i, m := range marks {
			if m != 2 {
				t.Fatalf("w=%d: item %d processed %d times across passes, want 2", w, i, m)
			}
		}
		p.Close()
	}
}

// TestFusedAfterHook asserts After runs exactly once, after the pass
// completes and before the next pass starts.
func TestFusedAfterHook(t *testing.T) {
	for _, w := range []int{1, 3} {
		p := NewPool(w)
		const n = 4096
		var covered atomic.Int64
		var afterRuns atomic.Int64
		var afterSaw int64
		var lateViolations atomic.Int64
		plan := &FusedPlan{Passes: []FusedPass{
			{N: n, Fn: func(_, lo, hi int) { covered.Add(int64(hi - lo)) },
				After: func() {
					afterRuns.Add(1)
					afterSaw = covered.Load()
				}},
			{N: n, Fn: func(_, lo, hi int) {
				if afterRuns.Load() != 1 {
					lateViolations.Add(1)
				}
			}},
		}}
		p.Fused(plan)
		if afterRuns.Load() != 1 {
			t.Fatalf("w=%d: After ran %d times, want 1", w, afterRuns.Load())
		}
		if afterSaw != n {
			t.Fatalf("w=%d: After observed %d/%d items complete", w, afterSaw, n)
		}
		if lateViolations.Load() != 0 {
			t.Fatalf("w=%d: pass 2 started before After", w)
		}
		p.Close()
	}
}

// TestFusedEmptyAndSkippedPasses: N <= 0 skips the body but still runs
// After; the plan completes without deadlock.
func TestFusedEmptyAndSkippedPasses(t *testing.T) {
	for _, w := range []int{1, 4} {
		p := NewPool(w)
		var ran atomic.Int64
		var after atomic.Int64
		plan := &FusedPlan{Passes: []FusedPass{
			{N: 0, Fn: func(_, _, _ int) { ran.Add(1) }, After: func() { after.Add(1) }},
			{N: 100, Fn: func(_, lo, hi int) { ran.Add(int64(hi - lo)) }},
		}}
		p.Fused(plan)
		if ran.Load() != 100 {
			t.Fatalf("w=%d: ran %d items, want 100", w, ran.Load())
		}
		if after.Load() != 1 {
			t.Fatalf("w=%d: After of empty pass ran %d times, want 1", w, after.Load())
		}
		p.Close()
	}
}

// TestFusedPanicPropagation: a panic in any pass is re-raised to the
// caller and the gang survives for further dispatches.
func TestFusedPanicPropagation(t *testing.T) {
	for _, w := range []int{1, 4} {
		p := NewPool(w)
		func() {
			defer func() {
				if r := recover(); r == nil {
					t.Fatalf("w=%d: fused panic not propagated", w)
				}
			}()
			p.Fused(&FusedPlan{Passes: []FusedPass{
				{N: 100, Fn: func(_, lo, hi int) { panic("pass boom") }},
				{N: 100, Fn: func(_, _, _ int) {}},
			}})
		}()
		// The pool must still be usable.
		var n atomic.Int64
		p.Blocks(100, func(_, lo, hi int) { n.Add(int64(hi - lo)) })
		if n.Load() != 100 {
			t.Fatalf("w=%d: pool broken after fused panic", w)
		}
		p.Close()
	}
}

// TestFusedChunkedCursorReset: consecutive chunked passes in one plan
// each see a freshly reset cursor (full coverage of both spaces).
func TestFusedChunkedCursorReset(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	var a, b atomic.Int64
	plan := &FusedPlan{Passes: []FusedPass{
		{N: 5000, Chunk: 128, Fn: func(_, lo, hi int) { a.Add(int64(hi - lo)) }},
		{N: 7000, Chunk: -1, Fn: func(_, lo, hi int) { b.Add(int64(hi - lo)) }},
	}}
	for rep := 0; rep < 3; rep++ {
		a.Store(0)
		b.Store(0)
		p.Fused(plan)
		if a.Load() != 5000 || b.Load() != 7000 {
			t.Fatalf("rep %d: covered %d/%d, want 5000/7000", rep, a.Load(), b.Load())
		}
	}
}

// TestBlockRangeAlignedCoverage: aligned block boundaries still tile
// [0, n) exactly, for every (n, workers) shape.
func TestBlockRangeAlignedCoverage(t *testing.T) {
	for _, n := range []int{1, 31, 32, 1000, 1024, 4096, 100_000} {
		for _, w := range []int{1, 2, 3, 4, 7, 8, 16} {
			covered := 0
			prevHi := 0
			for worker := 0; worker < w; worker++ {
				lo, hi := blockRange(n, worker, w)
				if lo < hi {
					if lo != prevHi {
						t.Fatalf("n=%d w=%d worker=%d: gap/overlap at lo=%d prevHi=%d", n, w, worker, lo, prevHi)
					}
					covered += hi - lo
					prevHi = hi
				}
			}
			if covered != n {
				t.Fatalf("n=%d w=%d: covered %d items", n, w, covered)
			}
			if prevHi != n {
				t.Fatalf("n=%d w=%d: last block ends at %d", n, w, prevHi)
			}
		}
	}
}

// TestTopologyDetection sanity-checks the detected (or fallback)
// topology: positive sizes, sane sharer count.
func TestTopologyDetection(t *testing.T) {
	topo := Topology()
	if topo.L2Bytes <= 0 || topo.LLCBytes <= 0 {
		t.Fatalf("non-positive cache sizes: %+v", topo)
	}
	if topo.LLCSharers < 1 {
		t.Fatalf("bad sharer count: %+v", topo)
	}
	if g := defaultGrain(2); g < serialCutoff {
		t.Fatalf("derived grain %d below serial cutoff", g)
	}
}
