package switching_test

import (
	"fmt"
	"testing"

	"gesmc/internal/digraph"
	"gesmc/internal/gen"
	"gesmc/internal/graph"
	"gesmc/internal/hashset"
	"gesmc/internal/rng"
	"gesmc/internal/switching"
)

// checkAgainstSequential runs switches on a runner of w workers over a
// copy of edges, as a global superstep when global is set (every edge
// index not in switches is a survivor) and as a prefix superstep
// otherwise, and compares the accepted count and the edge list with
// ExecuteSequential's; a prefix runner's edge set must hold exactly
// the resulting list.
func checkAgainstSequential[E switching.EdgeKind[E]](t *testing.T, edges []E,
	switches []switching.Switch, rest []uint32, global bool, w int) {
	t.Helper()
	want := append([]E(nil), edges...)
	wantLegal := switching.ExecuteSequential(want, hashset.FromEdges(want, 0.5), switches)
	got := append([]E(nil), edges...)
	r := switching.NewRunner(got, len(got)/2, w)
	defer r.Release()
	if global {
		r.RunGlobal(switches, rest)
	} else {
		r.Run(switches)
	}
	if r.Legal != wantLegal {
		t.Fatalf("accepted %d, sequential %d", r.Legal, wantLegal)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("edge list diverges at %d", i)
		}
	}
	if r.Set != nil {
		if r.Set.Len() != len(got) {
			t.Fatalf("edge set holds %d edges, want %d", r.Set.Len(), len(got))
		}
		for _, e := range got {
			if !r.Set.Contains(graph.Edge(e)) {
				t.Fatalf("edge %#x missing from the set", uint64(e))
			}
		}
	}
}

// TestRunnerBatchBoundariesMatchSequential is the differential for
// phase 1's batched gather and the deferred write-back at the sizes
// where batches and worker blocks end: supersteps of 1, B−1, B, B+1
// and 3B+5 switches (B the gather batch), global ones with 0, 1 and
// more than B survivors, on dense graphs where many switches depend
// on each other, at 1, 2, 4 and 8 workers.
func TestRunnerBatchBoundariesMatchSequential(t *testing.T) {
	B := switching.GatherBatch
	sizes := []int{1, B - 1, B, B + 1, 3*B + 5}
	survivors := []int{0, 1, B + 7}
	src := rng.NewMT19937(9006)
	g := gen.GNP(40, 0.5, src) // ≈ 390 edges
	arcs := randomArcs(24, 0.5, src)
	for _, n := range sizes {
		for _, s := range survivors {
			m := 2*n + s
			if m > g.M() || m > len(arcs) {
				t.Fatalf("graph too small for %d edges", m)
			}
			// The first m edges of a simple graph are a simple graph.
			edges, as := g.Edges()[:m], arcs[:m]
			swU, restU := globalStep(m, n, src)
			swD, restD := globalStep(m, n, src)
			for _, w := range []int{1, 2, 4, 8} {
				t.Run(fmt.Sprintf("global/n=%d/survivors=%d/w=%d", n, s, w), func(t *testing.T) {
					checkAgainstSequential(t, edges, swU, restU, true, w)
					checkAgainstSequential(t, as, swD, restD, true, w)
				})
			}
		}
		swU, _ := globalStep(g.M(), n, src)
		swD, _ := globalStep(len(arcs), n, src)
		for _, w := range []int{1, 2, 4, 8} {
			t.Run(fmt.Sprintf("prefix/n=%d/w=%d", n, w), func(t *testing.T) {
				checkAgainstSequential(t, g.Edges(), swU, nil, false, w)
				checkAgainstSequential(t, arcs, swD, nil, false, w)
			})
		}
	}
}

// checkRollbackRestores runs one global superstep on a set-backed
// runner, rolls back every accepted switch in reverse order, and
// checks that the edge list and the edge set are those of superstep
// start: RunGlobal must return with the write-back done, as the
// connectivity constraint's after hook expects.
func checkRollbackRestores[E switching.EdgeKind[E]](t *testing.T, edges []E, w int, src rng.Source) {
	t.Helper()
	start := append([]E(nil), edges...)
	got := append([]E(nil), edges...)
	m := len(got)
	switches, rest := globalStep(m, m/2, src)
	r := switching.NewRunner(got, m/2, w)
	defer r.Release()
	r.EnsureSet()
	r.RunGlobal(switches, rest)
	if r.Legal == 0 {
		t.Fatal("no switch accepted; the rollback is not exercised")
	}
	for k := len(switches) - 1; k >= 0; k-- {
		if r.Accepted(k) {
			r.Rollback(k, switches[k])
		}
	}
	if r.Legal != 0 || r.RolledBack == 0 {
		t.Fatalf("after rollback: legal %d, rolled back %d", r.Legal, r.RolledBack)
	}
	for i := range start {
		if got[i] != start[i] {
			t.Fatalf("edge list differs from superstep start at %d", i)
		}
	}
	if r.Set.Len() != m {
		t.Fatalf("edge set holds %d edges, want %d", r.Set.Len(), m)
	}
	for _, e := range start {
		if !r.Set.Contains(graph.Edge(e)) {
			t.Fatalf("edge %#x missing from the set", uint64(e))
		}
	}
}

// TestRunnerRollbackRestoresSuperstepStart pins the write-back order
// for both edge kinds at 1, 2 and 4 workers.
func TestRunnerRollbackRestoresSuperstepStart(t *testing.T) {
	src := rng.NewMT19937(9007)
	g, err := gen.SynPldGraph(1<<9, 2.2, src)
	if err != nil {
		t.Fatal(err)
	}
	arcs := randomArcs(64, 0.1, src)
	for _, w := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("workers=%d", w), func(t *testing.T) {
			checkRollbackRestores(t, g.Edges(), w, src)
			checkRollbackRestores[digraph.Arc](t, arcs, w, src)
		})
	}
}

// mustPanic runs f and fails unless it panics with want.
func mustPanic(t *testing.T, want string, f func()) {
	t.Helper()
	defer func() {
		if got := recover(); got != want {
			t.Fatalf("panic %v, want %q", got, want)
		}
	}()
	f()
}

// TestRunnerSetOutOfStepPanics desynchronizes a set-backed runner's
// edge set from its edge list in each direction the leader's set
// updates can detect — an erase of an absent edge and an insert of a
// present one, after a superstep and in a rollback — and expects the
// runner to panic rather than carry on with a set that no longer
// mirrors the list.
func TestRunnerSetOutOfStepPanics(t *testing.T) {
	const want = "switching: edge set out of step with the edge list"
	src := rng.NewMT19937(9008)
	g, err := gen.SynPldGraph(1<<8, 2.2, src)
	if err != nil {
		t.Fatal(err)
	}
	edges := g.Edges()
	m := len(edges)
	switches, rest := globalStep(m, m/2, src)
	// superstep runs the global superstep on a fresh set-backed runner
	// after desync edits its set, and returns the runner (released by
	// the test's cleanup) with its edge list.
	superstep := func(t *testing.T, desync func(*hashset.Set)) (*switching.Runner[graph.Edge], []graph.Edge) {
		got := append([]graph.Edge(nil), edges...)
		r := switching.NewRunner(got, m/2, 2)
		t.Cleanup(r.Release)
		r.EnsureSet()
		desync(r.Set)
		r.RunGlobal(switches, rest)
		return r, got
	}
	// The global decisions ignore the set, so a faithful run names the
	// first accepted switch of every desynchronized one.
	r, after := superstep(t, func(*hashset.Set) {})
	k := 0
	for !r.Accepted(k) {
		k++
	}
	sw := switches[k]
	source, target := edges[sw.I], after[sw.I]

	t.Run("apply/erase-absent", func(t *testing.T) {
		mustPanic(t, want, func() {
			superstep(t, func(S *hashset.Set) { S.Erase(source) })
		})
	})
	t.Run("apply/insert-present", func(t *testing.T) {
		mustPanic(t, want, func() {
			superstep(t, func(S *hashset.Set) { S.Insert(target) })
		})
	})
	t.Run("rollback/erase-absent", func(t *testing.T) {
		r, _ := superstep(t, func(*hashset.Set) {})
		r.Set.Erase(target)
		mustPanic(t, want, func() { r.Rollback(k, sw) })
	})
	t.Run("rollback/insert-present", func(t *testing.T) {
		r, _ := superstep(t, func(*hashset.Set) {})
		r.Set.Insert(source)
		mustPanic(t, want, func() { r.Rollback(k, sw) })
	})
}
