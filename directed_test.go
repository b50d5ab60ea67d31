package gesmc

import "testing"

func TestNewDiGraphValidation(t *testing.T) {
	if _, err := NewDiGraph(2, [][2]uint32{{0, 0}}); err == nil {
		t.Fatal("loop accepted")
	}
	g, err := NewDiGraph(2, [][2]uint32{{0, 1}, {1, 0}})
	if err != nil {
		t.Fatal(err)
	}
	if g.M() != 2 {
		t.Fatal("antiparallel arcs should be distinct")
	}
}

func TestFromInOutDegrees(t *testing.T) {
	out := []int{2, 1, 1, 0}
	in := []int{0, 1, 1, 2}
	g, err := FromInOutDegrees(out, in)
	if err != nil {
		t.Fatal(err)
	}
	gotOut, gotIn := g.OutDegrees(), g.InDegrees()
	for v := range out {
		if gotOut[v] != out[v] || gotIn[v] != in[v] {
			t.Fatalf("degree mismatch at node %d", v)
		}
	}
	if _, err := FromInOutDegrees([]int{1}, []int{1}); err == nil {
		t.Fatal("single-node loop sequence accepted")
	}
}

func TestRandomizeDirectedAlgorithms(t *testing.T) {
	// A denser digraph so switches have room.
	var arcs [][2]uint32
	for u := uint32(0); u < 24; u++ {
		for d := uint32(1); d <= 5; d++ {
			arcs = append(arcs, [2]uint32{u, (u + d) % 24})
		}
	}
	base, err := NewDiGraph(24, arcs)
	if err != nil {
		t.Fatal(err)
	}
	wantOut, wantIn := base.OutDegrees(), base.InDegrees()
	for _, alg := range []Algorithm{SeqES, SeqGlobalES, ParGlobalES} {
		g := base.Clone()
		stats, err := stepOnce(g, 6, WithAlgorithm(alg), WithWorkers(2), WithSeed(3))
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if err := g.CheckSimple(); err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		gotOut, gotIn := g.OutDegrees(), g.InDegrees()
		for v := range wantOut {
			if gotOut[v] != wantOut[v] || gotIn[v] != wantIn[v] {
				t.Fatalf("%v changed degrees", alg)
			}
		}
		if stats.Accepted == 0 {
			t.Fatalf("%v accepted nothing", alg)
		}
	}
	if _, err := stepOnce(base.Clone(), 20, WithAlgorithm(ParES)); err == nil {
		t.Fatal("unsupported directed algorithm accepted")
	}
}

func TestFromBipartiteDegrees(t *testing.T) {
	g, err := FromBipartiteDegrees([]int{2, 2, 1}, []int{2, 2, 1})
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 6 || g.M() != 5 {
		t.Fatalf("n=%d m=%d", g.N(), g.M())
	}
	if _, err := stepOnce(g, 10, WithAlgorithm(ParGlobalES), WithWorkers(2), WithSeed(1)); err != nil {
		t.Fatal(err)
	}
	// Every arc must still cross left -> right.
	for _, a := range g.Arcs() {
		if a[0] >= 3 || a[1] < 3 {
			t.Fatalf("arc %v broke the bipartition", a)
		}
	}
}
