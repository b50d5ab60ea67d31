package gesmc

import (
	"context"
	"errors"
	"testing"
)

// fragileRing returns a connected, bridge-heavy undirected target: a
// cycle with two chords.
func fragileRing(t *testing.T, n int) *Graph {
	t.Helper()
	var edges [][2]uint32
	for v := 0; v < n; v++ {
		edges = append(edges, [2]uint32{uint32(v), uint32((v + 1) % n)})
	}
	edges = append(edges, [2]uint32{0, uint32(n / 2)}, [2]uint32{3, uint32(n - 3)})
	g, err := NewGraph(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestConnectivityMetrics(t *testing.T) {
	g := fragileRing(t, 10)
	if !g.IsConnected() {
		t.Fatal("ring not connected")
	}
	if size, comps := g.LargestComponent(); size != 10 || comps != 1 {
		t.Fatalf("LargestComponent = (%d, %d)", size, comps)
	}
	// Two triangles, disjoint.
	split, err := NewGraph(7, [][2]uint32{{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}})
	if err != nil {
		t.Fatal(err)
	}
	if split.IsConnected() {
		t.Fatal("disjoint triangles reported connected")
	}
	if size, comps := split.LargestComponent(); size != 3 || comps != 3 {
		// node 6 is isolated: components = {0,1,2}, {3,4,5}, {6}.
		t.Fatalf("LargestComponent = (%d, %d), want (3, 3)", size, comps)
	}

	dg, err := NewDiGraph(5, [][2]uint32{{0, 1}, {2, 1}, {3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if dg.IsConnected() {
		t.Fatal("two weak components reported connected")
	}
	if dg.ConnectedComponents() != 2 {
		t.Fatalf("weak components = %d", dg.ConnectedComponents())
	}
	if size, comps := dg.LargestComponent(); size != 3 || comps != 2 {
		t.Fatalf("DiGraph LargestComponent = (%d, %d), want (3, 2)", size, comps)
	}
}

func TestConstraintValidationErrors(t *testing.T) {
	g := fragileRing(t, 8)
	cases := []struct {
		name string
		opts []Option
		want error
	}{
		{"loop forbidden edge", []Option{WithConstraint(ForbiddenEdges([][2]uint32{{2, 2}}))}, ErrInvalidConstraint},
		{"out-of-range forbidden edge", []Option{WithConstraint(ForbiddenEdges([][2]uint32{{0, 99}}))}, ErrInvalidConstraint},
		{"class length mismatch", []Option{WithConstraint(NodeClasses([]int{0, 1}))}, ErrInvalidConstraint},
		{"zero constraint", []Option{WithConstraint(Constraint{})}, ErrInvalidConstraint},
		{"forbidden edge present", []Option{WithConstraint(ForbiddenEdges([][2]uint32{{0, 1}}))}, ErrConstraintViolated},
		{"protected edge missing", []Option{WithConstraint(ProtectedEdges([][2]uint32{{1, 5}}))}, ErrConstraintViolated},
		{"curveball unsupported", []Option{WithAlgorithm(GlobalCurveball), WithConstraint(Connected())}, ErrUnsupportedConstraint},
		{"batched curveball unsupported", []Option{WithAlgorithm(Curveball), WithConstraint(Connected())}, ErrUnsupportedConstraint},
		{"exact unsupported", []Option{WithAlgorithm(Exact), WithConstraint(Connected())}, ErrUnsupportedConstraint},
	}
	for _, tc := range cases {
		if _, err := NewSampler(g.Clone(), tc.opts...); !errors.Is(err, tc.want) {
			t.Fatalf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}

	// Disconnected target under Connected().
	split, err := NewGraph(6, [][2]uint32{{0, 1}, {1, 2}, {3, 4}, {4, 5}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewSampler(split, WithConstraint(Connected())); !errors.Is(err, ErrConstraintViolated) {
		t.Fatalf("disconnected target: err = %v, want ErrConstraintViolated", err)
	}
}

// TestEnsembleConnectedAllWorkers is the acceptance criterion: with
// Connected() active, every sample from Sampler.Ensemble — sequential
// and parallel chains, workers {1, 2, 4, 8} — is connected, and the
// chain is seed-deterministic per worker count.
func TestEnsembleConnectedAllWorkers(t *testing.T) {
	base := fragileRing(t, 14)
	for _, alg := range []Algorithm{SeqES, SeqGlobalES, ParES, ParGlobalES} {
		for _, w := range []int{1, 2, 4, 8} {
			draw := func() ([]string, Stats) {
				s, err := NewSampler(base.Clone(),
					WithAlgorithm(alg), WithWorkers(w), WithSeed(21),
					WithBurnIn(6), WithThinning(2),
					WithConstraint(Connected()))
				if err != nil {
					t.Fatal(err)
				}
				defer s.Close()
				var keys []string
				for smp := range s.Ensemble(context.Background(), 8) {
					if smp.Err != nil {
						t.Fatal(smp.Err)
					}
					if !smp.Graph.IsConnected() {
						t.Fatalf("%v w=%d sample %d: disconnected", alg, w, smp.Index)
					}
					if err := smp.Graph.CheckSimple(); err != nil {
						t.Fatalf("%v w=%d: %v", alg, w, err)
					}
					keys = append(keys, canonKey(smp.Graph))
				}
				return keys, s.Stats()
			}
			k1, st1 := draw()
			k2, st2 := draw()
			for i := range k1 {
				if k1[i] != k2[i] {
					t.Fatalf("%v w=%d: ensemble not deterministic per seed", alg, w)
				}
			}
			if st1.ConstraintVetoes != st2.ConstraintVetoes {
				t.Fatalf("%v w=%d: veto counts differ across identical runs", alg, w)
			}
		}
	}
}

// canonKey gives a canonical string for an undirected public graph.
func canonKey(g *Graph) string {
	return string(canonBytes(g))
}

func canonBytes(g *Graph) []byte {
	edges := g.Edges()
	// Insertion-sort the pairs (tiny graphs only).
	for i := 1; i < len(edges); i++ {
		for j := i; j > 0; j-- {
			a, b := edges[j-1], edges[j]
			if a[0] < b[0] || (a[0] == b[0] && a[1] <= b[1]) {
				break
			}
			edges[j-1], edges[j] = b, a
		}
	}
	out := make([]byte, 0, len(edges)*2)
	for _, e := range edges {
		out = append(out, byte(e[0]), byte(e[1]))
	}
	return out
}

// TestEnsembleForbiddenWorkerIdentical: local constraints keep the
// parallel ensemble bit-identical across worker counts through the
// public API.
func TestEnsembleForbiddenWorkerIdentical(t *testing.T) {
	base := fragileRing(t, 12)
	forbidden := [][2]uint32{{0, 2}, {1, 7}, {4, 9}}
	var ref []string
	for _, w := range []int{1, 2, 4, 8} {
		s, err := NewSampler(base.Clone(),
			WithAlgorithm(ParGlobalES), WithWorkers(w), WithSeed(8),
			WithBurnIn(4), WithThinning(2),
			WithConstraint(ForbiddenEdges(forbidden)))
		if err != nil {
			t.Fatal(err)
		}
		var keys []string
		for smp := range s.Ensemble(context.Background(), 6) {
			if smp.Err != nil {
				t.Fatal(smp.Err)
			}
			for _, f := range forbidden {
				if smp.Graph.HasEdge(f[0], f[1]) {
					t.Fatalf("w=%d: forbidden edge (%d,%d) sampled", w, f[0], f[1])
				}
			}
			keys = append(keys, canonKey(smp.Graph))
		}
		s.Close()
		if w == 1 {
			ref = keys
			continue
		}
		for i := range ref {
			if keys[i] != ref[i] {
				t.Fatalf("w=%d: ensemble sample %d differs from w=1", w, i)
			}
		}
	}
}

// TestProtectedEdgesHeld: protected edges survive the whole ensemble.
func TestProtectedEdgesHeld(t *testing.T) {
	base := fragileRing(t, 12)
	protected := [][2]uint32{{0, 1}, {5, 6}}
	s, err := NewSampler(base.Clone(),
		WithAlgorithm(SeqGlobalES), WithSeed(13),
		WithBurnIn(5), WithThinning(2),
		WithConstraint(ProtectedEdges(protected)))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for smp := range s.Ensemble(context.Background(), 10) {
		if smp.Err != nil {
			t.Fatal(smp.Err)
		}
		for _, p := range protected {
			if !smp.Graph.HasEdge(p[0], p[1]) {
				t.Fatalf("sample %d lost protected edge (%d,%d)", smp.Index, p[0], p[1])
			}
		}
	}
	if s.Stats().ConstraintVetoes == 0 {
		t.Fatal("protected-edge constraint never vetoed anything; untested")
	}
}

// TestNodeClassesPreserveClassMatrix: the degree-class partition
// constraint keeps the number of edges between each class pair fixed.
func TestNodeClassesPreserveClassMatrix(t *testing.T) {
	base := fragileRing(t, 12)
	classes := make([]int, 12)
	for v := range classes {
		classes[v] = v % 3
	}
	classMatrix := func(g *Graph) map[[2]int]int {
		m := map[[2]int]int{}
		for _, e := range g.Edges() {
			a, b := classes[e[0]], classes[e[1]]
			if a > b {
				a, b = b, a
			}
			m[[2]int{a, b}]++
		}
		return m
	}
	want := classMatrix(base)
	s, err := NewSampler(base.Clone(),
		WithAlgorithm(ParGlobalES), WithWorkers(2), WithSeed(6),
		WithBurnIn(5), WithThinning(2),
		WithConstraint(NodeClasses(classes)))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for smp := range s.Ensemble(context.Background(), 8) {
		if smp.Err != nil {
			t.Fatal(smp.Err)
		}
		got := classMatrix(smp.Graph)
		if len(got) != len(want) {
			t.Fatalf("sample %d: class matrix shape changed", smp.Index)
		}
		for k, v := range want {
			if got[k] != v {
				t.Fatalf("sample %d: class pair %v count %d != %d", smp.Index, k, got[k], v)
			}
		}
	}
}

// TestDirectedConnectedEnsemble: the directed target class samples
// weakly connected ensembles through the same option.
func TestDirectedConnectedEnsemble(t *testing.T) {
	var arcs [][2]uint32
	for v := 0; v < 12; v++ {
		arcs = append(arcs, [2]uint32{uint32(v), uint32((v + 1) % 12)})
	}
	arcs = append(arcs, [2]uint32{0, 6})
	dg, err := NewDiGraph(12, arcs)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{1, 2, 4} {
		s, err := NewSampler(dg.Clone(),
			WithAlgorithm(ParGlobalES), WithWorkers(w), WithSeed(17),
			WithBurnIn(5), WithThinning(2),
			WithConstraint(Connected()))
		if err != nil {
			t.Fatal(err)
		}
		for smp := range s.Ensemble(context.Background(), 6) {
			if smp.Err != nil {
				t.Fatal(smp.Err)
			}
			if !smp.DiGraph.IsConnected() {
				t.Fatalf("w=%d sample %d: weakly disconnected", w, smp.Index)
			}
			if err := smp.DiGraph.CheckSimple(); err != nil {
				t.Fatal(err)
			}
		}
		s.Close()
	}
}

// TestConstraintStatsFlow: constraint counters surface through the
// public Stats on a workload guaranteed to reject.
func TestConstraintStatsFlow(t *testing.T) {
	// Path graph: all bridges, heavy connectivity rejection.
	var edges [][2]uint32
	for v := 0; v < 11; v++ {
		edges = append(edges, [2]uint32{uint32(v), uint32(v + 1)})
	}
	g, err := NewGraph(12, edges)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSampler(g,
		WithAlgorithm(SeqES), WithSeed(2),
		WithConstraint(Connected()))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	st, err := s.Step(20)
	if err != nil {
		t.Fatal(err)
	}
	if st.ConstraintVetoes == 0 {
		t.Fatal("no constraint vetoes on an all-bridge path graph")
	}
	if st.Accepted+st.ConstraintVetoes > st.Attempted {
		t.Fatalf("accounting: accepted %d + vetoed %d > attempted %d",
			st.Accepted, st.ConstraintVetoes, st.Attempted)
	}
	if total := s.Stats(); total.ConstraintVetoes != st.ConstraintVetoes {
		t.Fatal("lifetime stats do not accumulate constraint vetoes")
	}
}
