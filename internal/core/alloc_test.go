package core_test

import (
	"context"
	"fmt"
	"testing"

	"gesmc/internal/core"
	"gesmc/internal/gen"
	"gesmc/internal/rng"
)

// TestEngineSuperstepAllocs is the engine-level allocation-regression
// gate: a steady-state ParGlobalES superstep — permutation draw, ℓ
// draw, switch construction, and the parallel kernel — must stay at
// (almost) zero heap allocations at every worker count. The historical
// regression lived exactly here, above the kernel: the per-superstep
// permutation allocated its scatter machinery on every call at
// workers > 1 (~66 objects/superstep at w=2), which the kernel-level
// test could not see. The graph is large enough (m >= 2^12) that the
// permutation takes the scatter path, not the sequential fallback.
func TestEngineSuperstepAllocs(t *testing.T) {
	src := rng.NewMT19937(99)
	g, err := gen.SynPldGraph(1<<12, 2.0, src)
	if err != nil {
		t.Fatal(err)
	}
	if g.M() < 1<<12 {
		t.Fatalf("graph too small for the scatter path: m=%d", g.M())
	}
	ctx := context.Background()
	for _, alg := range []core.Algorithm{core.AlgParGlobalES, core.AlgParES} {
		for _, workers := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%v/workers=%d", alg, workers), func(t *testing.T) {
				eng, err := core.NewEngine(g.Clone(), alg, core.Config{
					Workers: workers,
					Seed:    7,
				})
				if err != nil {
					t.Fatal(err)
				}
				defer eng.Close()
				// Warm-up: grow every reused buffer (switch buffer,
				// undecided list, delay buffers)
				// and let worker stacks reach steady state.
				if _, err := eng.Steps(ctx, 8); err != nil {
					t.Fatal(err)
				}
				allocs := testing.AllocsPerRun(10, func() {
					if _, err := eng.Steps(ctx, 1); err != nil {
						t.Fatal(err)
					}
				})
				if allocs > 2 {
					t.Fatalf("superstep allocates %.1f objects in steady state, want <= 2", allocs)
				}
			})
		}
	}
}
