package switching_test

import (
	"fmt"
	"runtime"
	"testing"

	"gesmc/internal/gen"
	"gesmc/internal/graph"
	"gesmc/internal/rng"
	"gesmc/internal/switching"
)

// globalSwitchStep builds one full global-switch superstep (⌊m/2⌋
// source-independent switches from a fresh permutation).
func globalSwitchStep(m int, src rng.Source) []switching.Switch {
	switches, _ := globalStep(m, m/2, src)
	return switches
}

// globalStep draws a global superstep of n switches over the m edges
// of a list: a uniform permutation, its first 2n entries paired as in
// Algorithm 3 and the rest left as survivors.
func globalStep(m, n int, src rng.Source) ([]switching.Switch, []uint32) {
	perm := rng.Perm(src, m)
	return switching.GlobalSwitches(perm, n, nil), perm[2*n:]
}

// TestRunnerSuperstepAllocs is the allocation-regression gate of the
// gang-scheduled kernel: after warm-up (scratch grown), a superstep
// must perform (almost) no heap allocations — the phase bodies, driver
// hooks, and pool dispatches are all persistent. It covers both
// superstep shapes: Run, the set-backed prefix path, whose edge set
// must keep its bucket array (a set that grew would allocate), and
// RunGlobal on a set-less runner, the production ParGlobalES path. The
// bound of 1 tolerates rare runtime-internal
// allocations (e.g. a goroutine stack growth); the historical
// spawn-per-phase kernel sat at ~15+ per superstep before counting
// goroutine churn.
func TestRunnerSuperstepAllocs(t *testing.T) {
	src := rng.NewMT19937(1234)
	g, err := gen.SynPldGraph(1<<12, 2.2, src)
	if err != nil {
		t.Fatal(err)
	}
	m := g.M()
	for _, workers := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			E := append([]graph.Edge(nil), g.Edges()...)
			r := switching.NewRunner(E, m/2, workers)
			defer r.Release()
			r.EnsureSet()
			buckets := r.Set.Buckets()
			// Warm up: grows the undecided list and the per-worker
			// delay buffers, and lets worker stacks reach steady state.
			for i := 0; i < 6; i++ {
				r.Run(globalSwitchStep(m, src))
			}
			switches := globalSwitchStep(m, src)
			assertSuperstepAllocs(t, func() { r.Run(switches) })
			if got := r.Set.Buckets(); got != buckets {
				t.Fatalf("edge set grew from %d to %d buckets", buckets, got)
			}
		})
		t.Run(fmt.Sprintf("global/workers=%d", workers), func(t *testing.T) {
			E := append([]graph.Edge(nil), g.Edges()...)
			r := switching.NewRunner(E, m/2, workers)
			defer r.Release()
			for i := 0; i < 6; i++ {
				r.RunGlobal(globalStep(m, m/2, src))
			}
			if r.Set != nil {
				t.Fatal("RunGlobal built an edge set")
			}
			switches, rest := globalStep(m, m/2, src)
			assertSuperstepAllocs(t, func() { r.RunGlobal(switches, rest) })
		})
	}
}

func assertSuperstepAllocs(t *testing.T, superstep func()) {
	t.Helper()
	if allocs := testing.AllocsPerRun(10, superstep); allocs > 1 {
		t.Fatalf("superstep allocates %.1f objects in steady state, want ~0", allocs)
	}
}

// TestRunnerReleaseAndRecreate exercises the engine lifecycle: many
// runners created and released in sequence must not accumulate parked
// goroutines.
func TestRunnerReleaseAndRecreate(t *testing.T) {
	src := rng.NewMT19937(777)
	g := gen.GNP(64, 0.2, src)
	switches := globalBatch(g.M(), src)
	before := runtime.NumGoroutine()
	for i := 0; i < 30; i++ {
		E := append([]graph.Edge(nil), g.Edges()...)
		r := switching.NewRunner(E, maxi(len(switches), 1), 4)
		r.Run(switches)
		r.Release()
	}
	// Workers exit asynchronously after the close; poll briefly.
	for i := 0; i < 200; i++ {
		if runtime.NumGoroutine() <= before+3 {
			return
		}
		runtime.Gosched()
	}
	t.Fatalf("goroutines grew from %d to %d across released runners", before, runtime.NumGoroutine())
}
