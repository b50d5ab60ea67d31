package conc

import (
	"fmt"
	"slices"
	"testing"
	"time"
)

// Dispatch-latency micro-benchmarks: empty or near-empty bodies isolate
// the barrier cost of one gang dispatch (wake + completion) per shape
// and worker count, so barrier-count changes in the kernel (phase
// fusion) are measurable without graph workload noise. ns/op here IS
// the per-dispatch overhead the superstep phases pay.

func benchPoolWorkers() []int { return []int{1, 2, 4, 8} }

func BenchmarkPoolDispatchBlocks(b *testing.B) {
	for _, w := range benchPoolWorkers() {
		b.Run(fmt.Sprintf("w=%d", w), func(b *testing.B) {
			p := NewPool(w)
			defer p.Close()
			fn := func(_, _, _ int) {}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.Blocks(1<<16, fn)
			}
		})
	}
}

func BenchmarkPoolDispatchChunkedPass(b *testing.B) {
	for _, w := range benchPoolWorkers() {
		b.Run(fmt.Sprintf("w=%d", w), func(b *testing.B) {
			p := NewPool(w)
			defer p.Close()
			plan := &FusedPlan{Passes: []FusedPass{{N: 1 << 16, Chunk: -1, Fn: func(_, _, _ int) {}}}}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.Fused(plan)
			}
		})
	}
}

// BenchmarkPoolDispatchFused2 vs BenchmarkPoolDispatchTwoBlocks is the
// fusion payoff in isolation: one fused two-pass dispatch (one wake,
// one spin sub-barrier, one completion) against two back-to-back block
// dispatches (two wakes, two completions).
func BenchmarkPoolDispatchFused2(b *testing.B) {
	for _, w := range benchPoolWorkers() {
		b.Run(fmt.Sprintf("w=%d", w), func(b *testing.B) {
			p := NewPool(w)
			defer p.Close()
			fn := func(_, _, _ int) {}
			plan := &FusedPlan{Passes: []FusedPass{
				{N: 1 << 16, Fn: fn},
				{N: 1 << 16, Fn: fn},
			}}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.Fused(plan)
			}
		})
	}
}

func BenchmarkPoolDispatchTwoBlocks(b *testing.B) {
	for _, w := range benchPoolWorkers() {
		b.Run(fmt.Sprintf("w=%d", w), func(b *testing.B) {
			p := NewPool(w)
			defer p.Close()
			fn := func(_, _, _ int) {}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.Blocks(1<<16, fn)
				p.Blocks(1<<16, fn)
			}
		})
	}
}

// BenchmarkPoolDispatchFused3 measures a three-pass fused plan with a
// serial barrier hook between the second and third passes.
func BenchmarkPoolDispatchFused3(b *testing.B) {
	for _, w := range benchPoolWorkers() {
		b.Run(fmt.Sprintf("w=%d", w), func(b *testing.B) {
			p := NewPool(w)
			defer p.Close()
			fn := func(_, _, _ int) {}
			after := func() {}
			plan := &FusedPlan{Passes: []FusedPass{
				{N: 1 << 16, Fn: fn},
				{N: 1 << 16, Fn: fn, After: after},
				{N: 1 << 16, Fn: fn},
			}}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.Fused(plan)
			}
		})
	}
}

// BenchmarkPoolWake measures how late the gang starts a dispatch whose
// bodies are long enough that the leader cannot run them itself: every
// worker spins for wakeBody in its block. wake-ns is the median, over
// dispatches, of the last worker's start latency from just before the
// dispatch; wake-p90-ns is its 90th percentile. The empty-body
// BenchmarkPoolDispatch* rows do not show this cost: their leader
// finishes its share at once, so a woken worker can run on the
// leader's own processor.
func BenchmarkPoolWake(b *testing.B) {
	const wakeBody = 100 * time.Microsecond
	for _, w := range []int{2, 4} {
		b.Run(fmt.Sprintf("w=%d", w), func(b *testing.B) {
			p := NewPool(w)
			defer p.Close()
			var t0 time.Time
			starts := make([]time.Duration, w)
			fn := func(worker, _, _ int) {
				t := time.Now()
				starts[worker] = t.Sub(t0)
				for time.Since(t) < wakeBody {
				}
			}
			var wake []float64
			for b.Loop() {
				t0 = time.Now()
				p.Blocks(1<<10, fn)
				wake = append(wake, float64(slices.Max(starts[1:])))
			}
			slices.Sort(wake)
			b.ReportMetric(wake[len(wake)/2], "wake-ns")
			b.ReportMetric(wake[len(wake)*9/10], "wake-p90-ns")
		})
	}
}
