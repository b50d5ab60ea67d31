package curveball

import (
	"context"
	"slices"
	"testing"

	"gesmc/internal/gen"
	"gesmc/internal/graph"
	"gesmc/internal/rng"
	"gesmc/internal/switching"
)

func checkInvariants(t *testing.T, before, after *graph.Graph) {
	t.Helper()
	if err := after.CheckSimple(); err != nil {
		t.Fatal(err)
	}
	a := before.Degrees()
	b := after.Degrees()
	for v := range a {
		if a[v] != b[v] {
			t.Fatalf("degree of %d changed: %d -> %d", v, a[v], b[v])
		}
	}
}

func edgeKey(es []graph.Edge) string {
	key := ""
	for _, e := range sortedEdges(es) {
		key += e.String()
	}
	return key
}

// tradeOnce runs the single trade (u, v) as a one-pair batch on both the
// Reference and a fresh Engine and returns the resulting edge set, after
// checking that the two agree.
func tradeOnce(t *testing.T, ref *Reference, eng *Engine, m int, u, v uint32, seed uint64) []graph.Edge {
	t.Helper()
	pairs := []uint32{u, v}
	ref.TradeBatch(pairs, seed)
	eng.TradeBatch(pairs, seed)
	want := ref.Edges()
	if got := sortedEdges(engineEdges(eng, m)); !slices.Equal(got, sortedEdges(want)) {
		t.Fatalf("seed %d: engine %v, reference %v", seed, got, want)
	}
	return want
}

func TestTradePreservesInvariants(t *testing.T) {
	// 500 uniform single-pair trades, each run as a one-pair batch on the
	// Engine and checked against the Reference.
	src := rng.NewMT19937(1)
	g := gen.GNP(64, 0.15, src)
	ref, eng := NewReference(g), NewEngine(g, 2, 1)
	defer eng.Close()
	for i := 0; i < 500; i++ {
		u, v := rng.TwoDistinct(src, g.N())
		tradeOnce(t, ref, eng, g.M(), uint32(u), uint32(v), uint64(i))
	}
	checkInvariants(t, g, eng.Graph())
}

func TestGlobalTradeInvariants(t *testing.T) {
	src := rng.NewMT19937(4)
	g, err := gen.SynPldGraph(128, 2.3, src)
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(g, 2, 4)
	defer eng.Close()
	for i := 0; i < 20; i++ {
		eng.GlobalStep()
		checkInvariants(t, g, eng.Graph())
	}
}

func TestTradeFixedSharedNeighbors(t *testing.T) {
	// Shared neighbors and the edge {u,v} itself must never move.
	g, err := graph.FromPairs(5, [][2]graph.Node{{0, 1}, {0, 2}, {1, 2}, {0, 3}, {1, 4}})
	if err != nil {
		t.Fatal(err)
	}
	ref, eng := NewReference(g), NewEngine(g, 2, 1)
	defer eng.Close()
	for seed := uint64(0); seed < 50; seed++ {
		edges := tradeOnce(t, ref, eng, g.M(), 0, 1, seed)
		for _, e := range []graph.Edge{graph.MakeEdge(0, 1), graph.MakeEdge(0, 2), graph.MakeEdge(1, 2)} {
			if !slices.Contains(edges, e) {
				t.Fatalf("seed %d: fixed edge %v was traded: %v", seed, e, edges)
			}
		}
	}
}

func TestTradeReachesBothAssignments(t *testing.T) {
	// u=0 with exclusive neighbor 3, v=1 with exclusive neighbor 4:
	// trades must eventually realize both assignments.
	base, err := graph.FromPairs(5, [][2]graph.Node{{0, 3}, {1, 4}})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for seed := uint64(0); seed < 200; seed++ {
		eng := NewEngine(base, 1, seed)
		seen[edgeKey(tradeOnce(t, NewReference(base), eng, base.M(), 0, 1, seed))] = true
		eng.Close()
	}
	if len(seen) != 2 {
		t.Fatalf("trades reached %d assignments, want 2: %v", len(seen), seen)
	}
}

func TestRunnersRandomize(t *testing.T) {
	// Both served chains, driven through switching.Engine: every Steps
	// call writes the current edges back into the target's edge list.
	src := rng.NewMT19937(5)
	g := gen.GNP(64, 0.2, src)
	for _, global := range []bool{false, true} {
		work := g.Clone()
		eng := switching.NewEngine(NewEngine(work, 2, 7).Stepper(global, work.Edges()))
		for i := 0; i < 5; i++ {
			if _, err := eng.Steps(context.Background(), 2); err != nil {
				t.Fatal(err)
			}
			checkInvariants(t, g, work)
		}
		eng.Close()
		if graph.SameEdgeSet(g, work) {
			t.Fatalf("global=%v left the graph unchanged", global)
		}
	}
}

func TestCurveballUniformOverMatchings(t *testing.T) {
	// The 15-state enumeration used by the other chains, for the local
	// Curveball chain: ⌊n/2⌋ uniform trades per superstep, run as
	// node-disjoint batches, must converge to uniform over the perfect
	// matchings of K6 (the global chain is covered by
	// TestParallelGlobalCurveballUniformOverMatchings).
	base, err := graph.FromPairs(6, [][2]graph.Node{{0, 1}, {2, 3}, {4, 5}})
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	const runs = 3000
	for r := 0; r < runs; r++ {
		e := NewEngine(base, 1, uint64(r)*2654435761+3)
		for s := 0; s < 20; s++ {
			e.LocalStep()
		}
		counts[edgeKey(engineEdges(e, base.M()))]++
		e.Close()
	}
	if len(counts) != 15 {
		t.Fatalf("reached %d of 15 states", len(counts))
	}
	expected := float64(runs) / 15
	var x2 float64
	for _, c := range counts {
		d := float64(c) - expected
		x2 += d * d / expected
	}
	if x2 > 60 { // df = 14
		t.Fatalf("chi-square %.1f too large", x2)
	}
}
