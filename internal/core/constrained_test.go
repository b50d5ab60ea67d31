package core

import (
	"errors"
	"testing"

	"gesmc/internal/constraint"
	"gesmc/internal/gen"
	"gesmc/internal/graph"
)

// gridGraph builds a rows x cols grid (connected, bridge-free
// interior) for constrained differential tests.
func gridGraph(t *testing.T, rows, cols int) *graph.Graph {
	t.Helper()
	return gen.Grid2D(rows, cols)
}

func connectedSpec() *constraint.Spec {
	return &constraint.Spec{Connected: true}
}

func forbiddenSpec(edges ...graph.Edge) *constraint.Spec {
	packed := make([]uint64, len(edges))
	for i, e := range edges {
		packed[i] = uint64(e)
	}
	return &constraint.Spec{Locals: []constraint.Local{constraint.NewForbidden(packed)}}
}

// TestConstraintDisconnectedTarget: the connectivity constraint rejects
// a disconnected start state.
func TestConstraintDisconnectedTarget(t *testing.T) {
	g, err := graph.FromPairs(6, [][2]graph.Node{{0, 1}, {1, 2}, {3, 4}, {4, 5}})
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range []Algorithm{AlgSeqES, AlgSeqGlobalES, AlgParES, AlgParGlobalES} {
		if _, err := NewEngine(g.Clone(), alg, Config{Constraint: connectedSpec()}); !errors.Is(err, constraint.ErrDisconnected) {
			t.Fatalf("%v: err = %v, want ErrDisconnected", alg, err)
		}
	}
}

// TestLocalConstraintWorkerInvariance: with a forbidden-edge (local)
// constraint, the parallel chains are bit-identical for every worker
// count — and ParES additionally matches constrained SeqES exactly,
// since both realize sequential Definition-1 semantics over the same
// pre-sampled switch sequence.
func TestLocalConstraintWorkerInvariance(t *testing.T) {
	base := gridGraph(t, 6, 6)
	// Forbid a handful of non-edges so vetoes actually fire.
	spec := func() *constraint.Spec {
		return forbiddenSpec(
			graph.MakeEdge(0, 35), graph.MakeEdge(1, 30),
			graph.MakeEdge(2, 29), graph.MakeEdge(5, 6),
		)
	}
	const supersteps = 6

	for _, alg := range []Algorithm{AlgParES, AlgParGlobalES} {
		var ref []graph.Edge
		var refVetoed int64
		for _, w := range []int{1, 2, 4, 8} {
			g := base.Clone()
			stats, err := Run(g, alg, supersteps, Config{Workers: w, Seed: 99, Constraint: spec()})
			if err != nil {
				t.Fatal(err)
			}
			if err := g.CheckSimple(); err != nil {
				t.Fatalf("%v w=%d: %v", alg, w, err)
			}
			for _, e := range g.Edges() {
				switch e {
				case graph.MakeEdge(0, 35), graph.MakeEdge(1, 30), graph.MakeEdge(2, 29), graph.MakeEdge(5, 6):
					t.Fatalf("%v w=%d: forbidden edge %v present", alg, w, e)
				}
			}
			if w == 1 {
				ref = append([]graph.Edge(nil), g.Edges()...)
				refVetoed = stats.Vetoed
				if stats.Vetoed == 0 {
					t.Fatalf("%v: no vetoes fired; constraint untested", alg)
				}
				continue
			}
			if stats.Vetoed != refVetoed {
				t.Fatalf("%v w=%d: vetoed %d != %d at w=1", alg, w, stats.Vetoed, refVetoed)
			}
			for i := range ref {
				if g.Edges()[i] != ref[i] {
					t.Fatalf("%v w=%d: edge %d differs from w=1", alg, w, i)
				}
			}
		}
	}

	// ParES == SeqES under the same local constraint.
	gs := base.Clone()
	if _, err := Run(gs, AlgSeqES, supersteps, Config{Seed: 99, Constraint: spec()}); err != nil {
		t.Fatal(err)
	}
	gp := base.Clone()
	if _, err := Run(gp, AlgParES, supersteps, Config{Workers: 4, Seed: 99, Constraint: spec()}); err != nil {
		t.Fatal(err)
	}
	for i := range gs.Edges() {
		if gs.Edges()[i] != gp.Edges()[i] {
			t.Fatalf("constrained ParES diverges from constrained SeqES at edge %d", i)
		}
	}
}

// TestConnectedConstraintInvariants: with the connectivity constraint,
// every post-superstep state is connected for all four chains at
// workers {1, 2, 4, 8}, the degree sequence and simplicity hold, and
// runs are deterministic per (seed, workers).
func TestConnectedConstraintInvariants(t *testing.T) {
	// A bridge-heavy target makes connectivity rejections common: a
	// path of small cycles (each pair of consecutive 4-cycles joined
	// by a bridge).
	var pairs [][2]graph.Node
	const cycles = 5
	for c := 0; c < cycles; c++ {
		b := graph.Node(4 * c)
		pairs = append(pairs, [][2]graph.Node{{b, b + 1}, {b + 1, b + 2}, {b + 2, b + 3}, {b + 3, b}}...)
		if c+1 < cycles {
			pairs = append(pairs, [2]graph.Node{b + 2, b + 4})
		}
	}
	base, err := graph.FromPairs(4*cycles, pairs)
	if err != nil {
		t.Fatal(err)
	}
	wantDeg := base.Degrees()

	for _, alg := range []Algorithm{AlgSeqES, AlgSeqGlobalES, AlgParES, AlgParGlobalES} {
		for _, w := range []int{1, 2, 4, 8} {
			run := func() (*graph.Graph, *RunStats) {
				g := base.Clone()
				eng, err := NewEngine(g, alg, Config{Workers: w, Seed: 7, Constraint: connectedSpec()})
				if err != nil {
					t.Fatal(err)
				}
				defer eng.Close()
				// Step one superstep at a time so every intermediate
				// state is checked, not only the final one.
				for s := 0; s < 8; s++ {
					if _, err := eng.Steps(t.Context(), 1); err != nil {
						t.Fatal(err)
					}
					if c, _ := graph.ConnectedComponents(g); c != 1 {
						t.Fatalf("%v w=%d superstep %d: disconnected (%d components)", alg, w, s, c)
					}
					if err := g.CheckSimple(); err != nil {
						t.Fatalf("%v w=%d superstep %d: %v", alg, w, s, err)
					}
				}
				deg := g.Degrees()
				for v := range deg {
					if deg[v] != wantDeg[v] {
						t.Fatalf("%v w=%d: degree of %d changed", alg, w, v)
					}
				}
				st := eng.Stats()
				return g, &st
			}
			g1, st1 := run()
			g2, st2 := run()
			for i := range g1.Edges() {
				if g1.Edges()[i] != g2.Edges()[i] {
					t.Fatalf("%v w=%d: not deterministic per seed", alg, w)
				}
			}
			if st1.Vetoed != st2.Vetoed || st1.EscapeMoves != st2.EscapeMoves {
				t.Fatalf("%v w=%d: stats not deterministic", alg, w)
			}
			if alg == AlgSeqES && st1.Vetoed == 0 {
				t.Fatalf("no connectivity vetoes on a bridge-heavy graph: constraint untested")
			}
		}
	}
}

// TestParallelConnectedWorkerInvariance: the speculate-then-recertify
// mode is worker-count independent too — the accepted set and the
// rollback order both derive from the kernel's exact decisions.
func TestParallelConnectedWorkerInvariance(t *testing.T) {
	var pairs [][2]graph.Node
	for v := 0; v < 12; v++ {
		pairs = append(pairs, [2]graph.Node{graph.Node(v), graph.Node((v + 1) % 12)})
	}
	pairs = append(pairs, [2]graph.Node{0, 4}, [2]graph.Node{6, 10})
	base, err := graph.FromPairs(12, pairs)
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range []Algorithm{AlgParES, AlgParGlobalES} {
		var ref []graph.Edge
		var refStats RunStats
		for _, w := range []int{1, 2, 4, 8} {
			g := base.Clone()
			stats, err := Run(g, alg, 10, Config{Workers: w, Seed: 3, Constraint: connectedSpec()})
			if err != nil {
				t.Fatal(err)
			}
			if w == 1 {
				ref = append([]graph.Edge(nil), g.Edges()...)
				refStats = *stats
				continue
			}
			for i := range ref {
				if g.Edges()[i] != ref[i] {
					t.Fatalf("%v w=%d: edge %d differs from w=1", alg, w, i)
				}
			}
			if stats.Vetoed != refStats.Vetoed || stats.Legal != refStats.Legal ||
				stats.EscapeMoves != refStats.EscapeMoves {
				t.Fatalf("%v w=%d: stats differ from w=1 (vetoed %d/%d legal %d/%d)",
					alg, w, stats.Vetoed, refStats.Vetoed, stats.Legal, refStats.Legal)
			}
		}
	}
}

// cycleKey canonicalizes a 2-regular graph state for the uniformity
// test.
func cycleKey(g *graph.Graph) string {
	return g.CanonicalKey()
}

// TestUniformityConnectedHexagons: enumeration-based uniformity over
// the CONNECTED realizations of the all-2 degree sequence on 6 nodes.
// The realizations are disjoint unions of cycles: sixty 6-cycles
// (connected) and ten 3+3 pairs (disconnected). The constrained chain
// must visit exactly the 60 connected states, uniformly.
func TestUniformityConnectedHexagons(t *testing.T) {
	var pairs [][2]graph.Node
	for v := 0; v < 6; v++ {
		pairs = append(pairs, [2]graph.Node{graph.Node(v), graph.Node((v + 1) % 6)})
	}
	base, err := graph.FromPairs(6, pairs)
	if err != nil {
		t.Fatal(err)
	}
	const runs = 6000
	counts := map[string]int{}
	for r := 0; r < runs; r++ {
		g := base.Clone()
		if _, err := Run(g, AlgSeqES, 25, Config{Seed: uint64(r)*2654435761 + 17, Constraint: connectedSpec()}); err != nil {
			t.Fatal(err)
		}
		if c, _ := graph.ConnectedComponents(g); c != 1 {
			t.Fatal("constrained chain emitted a disconnected state")
		}
		counts[cycleKey(g)]++
	}
	if len(counts) != 60 {
		t.Fatalf("reached %d of 60 connected states", len(counts))
	}
	expected := float64(runs) / 60
	var x2 float64
	for _, c := range counts {
		d := float64(c) - expected
		x2 += d * d / expected
	}
	// df = 59: mean 59, sd ~10.9. 130 is ~6.5 sigma — loose enough for
	// a deterministic-seed test, tight enough to catch real bias.
	if x2 > 130 {
		t.Fatalf("chi-square over connected states = %.1f (threshold 130, df=59)", x2)
	}
}

// TestEscapeMovesFire: with an aggressive stall limit on a bridge-rich
// graph, the sequential constrained chain reaches the k-switch escape
// path and stays inside the constrained space throughout.
func TestEscapeMovesFire(t *testing.T) {
	var pairs [][2]graph.Node
	for v := 0; v < 14; v++ {
		pairs = append(pairs, [2]graph.Node{graph.Node(v), graph.Node(v + 1)})
	}
	base, err := graph.FromPairs(15, pairs) // path graph: all bridges
	if err != nil {
		t.Fatal(err)
	}
	spec := &constraint.Spec{Connected: true, Stall: 2}
	g := base.Clone()
	stats, err := Run(g, AlgSeqES, 30, Config{Seed: 5, Constraint: spec})
	if err != nil {
		t.Fatal(err)
	}
	if stats.EscapeAttempts == 0 {
		t.Fatal("stall limit 2 on a path graph never attempted an escape")
	}
	if c, _ := graph.ConnectedComponents(g); c != 1 {
		t.Fatal("escape left a disconnected graph")
	}
	if err := g.CheckSimple(); err != nil {
		t.Fatal(err)
	}
	deg := g.Degrees()
	want := base.Degrees()
	for v := range deg {
		if deg[v] != want[v] {
			t.Fatalf("degree of %d changed", v)
		}
	}
}

// TestParESEdgeSet: ParES's prefix supersteps look up unsourced edges
// in the edge set, which its runner builds on the first
// superstep (up front when the connectivity constraint needs it) and
// keeps indexing every edge.
func TestParESEdgeSet(t *testing.T) {
	g := gridGraph(t, 6, 6)
	for _, spec := range []*constraint.Spec{nil, connectedSpec()} {
		for _, w := range []int{1, 2} {
			gc := g.Clone()
			var cons *constraint.Runtime[graph.Edge]
			if spec != nil {
				var err error
				if cons, err = constraint.NewRuntime(spec, gc.N(), gc.Edges()); err != nil {
					t.Fatal(err)
				}
			}
			s := newParESStepper(gc.Edges(), Config{Seed: 5, Workers: w, Constraint: spec}, cons, true)
			var st RunStats
			for step := 0; step < 3; step++ {
				if err := s.Step(&st); err != nil {
					t.Fatal(err)
				}
				if s.runner.Set == nil || s.runner.Set.Len() != g.M() {
					t.Fatalf("constraint=%v workers=%d step %d: edge set missing or not holding all %d edges", spec, w, step, g.M())
				}
			}
			s.Release()
		}
	}
}
