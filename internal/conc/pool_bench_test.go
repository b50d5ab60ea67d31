package conc

import (
	"fmt"
	"testing"
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
