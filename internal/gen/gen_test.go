package gen

import (
	"math"
	"slices"
	"testing"

	"gesmc/internal/graph"
	"gesmc/internal/rng"
)

func TestGNPEdgeCount(t *testing.T) {
	src := rng.NewMT19937(1)
	const n = 500
	const p = 0.05
	g := GNP(n, p, src)
	if err := g.CheckSimple(); err != nil {
		t.Fatal(err)
	}
	want := p * float64(n) * float64(n-1) / 2
	sd := math.Sqrt(want * (1 - p))
	if d := math.Abs(float64(g.M()) - want); d > 5*sd {
		t.Fatalf("G(n,p) edge count %d too far from %.0f (sd %.1f)", g.M(), want, sd)
	}
}

func TestGNPExtremes(t *testing.T) {
	src := rng.NewMT19937(2)
	if g := GNP(100, 0, src); g.M() != 0 {
		t.Fatalf("p=0 produced %d edges", g.M())
	}
	g := GNP(30, 1, src)
	if g.M() != 30*29/2 {
		t.Fatalf("p=1 produced %d edges, want %d", g.M(), 30*29/2)
	}
	if err := g.CheckSimple(); err != nil {
		t.Fatal(err)
	}
	if g := GNP(0, 0.5, src); g.N() != 0 || g.M() != 0 {
		t.Fatal("empty node set mishandled")
	}
	if g := GNP(1, 0.5, src); g.M() != 0 {
		t.Fatal("single node produced edges")
	}
}

func TestPairFromIndexBijective(t *testing.T) {
	const n = 37
	seen := map[graph.Edge]bool{}
	total := int64(n * (n - 1) / 2)
	for idx := int64(0); idx < total; idx++ {
		u, v := pairFromIndex(idx, n)
		if u >= v || int(v) >= n {
			t.Fatalf("index %d -> invalid pair (%d, %d)", idx, u, v)
		}
		e := graph.MakeEdge(u, v)
		if seen[e] {
			t.Fatalf("index %d -> duplicate pair (%d, %d)", idx, u, v)
		}
		seen[e] = true
	}
	if int64(len(seen)) != total {
		t.Fatalf("covered %d pairs, want %d", len(seen), total)
	}
}

func TestGNPUniformEdgeMarginals(t *testing.T) {
	// Each possible edge should appear with probability p.
	src := rng.NewMT19937(77)
	const n = 12
	const p = 0.3
	const runs = 20000
	counts := map[graph.Edge]int{}
	for r := 0; r < runs; r++ {
		for _, e := range GNP(n, p, src).Edges() {
			counts[e]++
		}
	}
	want := float64(runs) * p
	sd := math.Sqrt(float64(runs) * p * (1 - p))
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			c := float64(counts[graph.MakeEdge(graph.Node(u), graph.Node(v))])
			if math.Abs(c-want) > 5*sd {
				t.Fatalf("edge (%d,%d) appeared %v times, want %.0f±%.0f", u, v, c, want, sd)
			}
		}
	}
}

func TestErdosGallai(t *testing.T) {
	cases := []struct {
		deg  []int
		want bool
	}{
		{[]int{3, 3, 3, 3}, true},       // K4
		{[]int{1, 1}, true},             // single edge
		{[]int{1, 1, 1}, false},         // odd sum
		{[]int{3, 1, 1, 1}, true},       // star
		{[]int{4, 1, 1, 1, 1}, true},    // star K1,4
		{[]int{5, 1, 1, 1, 1}, false},   // degree exceeds n-1
		{[]int{2, 2, 2}, true},          // triangle
		{[]int{3, 3, 1, 1}, false},      // classic non-graphical
		{[]int{0, 0, 0}, true},          // empty graph
		{[]int{}, true},                 // empty sequence
		{[]int{2, 2, 2, 2, 2, 2}, true}, // cycle
		{[]int{6, 5, 4, 3, 2, 1}, false},
		{[]int{5, 5, 4, 3, 2, 1}, false}, // odd sum
		{[]int{5, 5, 5, 5, 5, 5}, true},  // K6
	}
	for _, c := range cases {
		if got := ErdosGallai(c.deg); got != c.want {
			t.Errorf("ErdosGallai(%v) = %v, want %v", c.deg, got, c.want)
		}
	}
}

// erdosGallaiEveryK is the Erdős–Gallai test as stated: sort the
// degrees non-increasingly and check the inequality at every k.
func erdosGallaiEveryK(degrees []int) bool {
	n := len(degrees)
	d := slices.Clone(degrees)
	slices.SortFunc(d, func(a, b int) int { return b - a })
	total := 0
	for _, v := range d {
		if v < 0 || v >= n {
			return false
		}
		total += v
	}
	if total%2 != 0 {
		return false
	}
	lhs := 0
	for k := 1; k <= n; k++ {
		lhs += d[k-1]
		rhs := k * (k - 1)
		for _, v := range d[k:] {
			rhs += min(v, k)
		}
		if lhs > rhs {
			return false
		}
	}
	return true
}

// TestErdosGallaiEveryK checks the run-end histogram walk against the
// inequality at every k: exhaustively over every sequence with n <= 7
// and entries in [-1, n], and on random sequences up to n = 300,
// including dense ones where the k < v branch runs long.
func TestErdosGallaiEveryK(t *testing.T) {
	for n := 0; n <= 7; n++ {
		deg := make([]int, n)
		for i := range deg {
			deg[i] = -1
		}
		for {
			if got, want := ErdosGallai(deg), erdosGallaiEveryK(deg); got != want {
				t.Fatalf("ErdosGallai(%v) = %v, every-k test %v", deg, got, want)
			}
			i := 0
			for ; i < n && deg[i] == n; i++ {
				deg[i] = -1
			}
			if i == n {
				break
			}
			deg[i]++
		}
	}
	src := rng.NewMT19937(9)
	for trial := 0; trial < 3000; trial++ {
		n := 1 + rng.IntN(src, 300)
		top := 1 + rng.IntN(src, n)
		deg := make([]int, n)
		for i := range deg {
			deg[i] = rng.IntN(src, top)
		}
		if s := 0; trial%2 == 0 {
			for _, v := range deg {
				s += v
			}
			if s%2 != 0 {
				deg[0] ^= 1 // mostly even sums, so the inequalities decide
				if deg[0] >= n {
					deg[0] -= 2
				}
			}
		}
		if got, want := ErdosGallai(deg), erdosGallaiEveryK(deg); got != want {
			t.Fatalf("ErdosGallai(%v) = %v, every-k test %v", deg, got, want)
		}
	}
}

func TestHavelHakimiRealizesDegrees(t *testing.T) {
	cases := [][]int{
		{3, 3, 3, 3},
		{1, 1},
		{2, 2, 2},
		{3, 1, 1, 1},
		{4, 4, 4, 4, 4},          // K5
		{2, 2, 2, 2, 2, 2, 2, 2}, // cycle
		{5, 4, 3, 2, 2, 2, 1, 1},
		{0, 0, 2, 2, 2},
	}
	for _, deg := range cases {
		g, err := HavelHakimi(deg)
		if err != nil {
			t.Fatalf("HavelHakimi(%v): %v", deg, err)
		}
		if err := g.CheckSimple(); err != nil {
			t.Fatalf("HavelHakimi(%v) not simple: %v", deg, err)
		}
		got := g.Degrees()
		for v, d := range deg {
			if got[v] != d {
				t.Fatalf("HavelHakimi(%v): node %d has degree %d, want %d", deg, v, got[v], d)
			}
		}
	}
}

func TestHavelHakimiRejectsNonGraphical(t *testing.T) {
	for _, deg := range [][]int{
		{1, 1, 1},
		{3, 3, 1, 1},
		{5, 1, 1, 1, 1},
		{-1, 1},
	} {
		if _, err := HavelHakimi(deg); err == nil {
			t.Fatalf("HavelHakimi(%v) accepted non-graphical sequence", deg)
		}
	}
}

func TestHavelHakimiAgreesWithErdosGallai(t *testing.T) {
	// Random sequences: HH succeeds iff EG says graphical.
	src := rng.NewMT19937(4)
	for trial := 0; trial < 500; trial++ {
		n := 2 + rng.IntN(src, 12)
		deg := make([]int, n)
		for i := range deg {
			deg[i] = rng.IntN(src, n)
		}
		eg := ErdosGallai(deg)
		_, err := HavelHakimi(deg)
		if eg != (err == nil) {
			t.Fatalf("disagreement on %v: EG=%v, HH err=%v", deg, eg, err)
		}
	}
}

func TestPowerLawSequenceProperties(t *testing.T) {
	src := rng.NewMT19937(5)
	deg := PowerLawSequence(5000, 1, 70, 2.1, src)
	sum := 0
	for _, d := range deg {
		if d < 1 || d > 70 {
			t.Fatalf("degree %d outside [1, 70]", d)
		}
		sum += d
	}
	if sum%2 != 0 {
		t.Fatal("degree sum not even")
	}
	// Power law: degree-1 nodes must dominate degree-2 nodes roughly by
	// factor 2^2.1 ≈ 4.3.
	c1, c2 := 0, 0
	for _, d := range deg {
		if d == 1 {
			c1++
		} else if d == 2 {
			c2++
		}
	}
	ratio := float64(c1) / float64(c2)
	if ratio < 3 || ratio > 6 {
		t.Fatalf("degree-1/degree-2 ratio %.2f outside power-law band", ratio)
	}
}

func TestSynPldRealizable(t *testing.T) {
	src := rng.NewMT19937(6)
	for _, gamma := range []float64{2.01, 2.1, 2.5, 3.0} {
		g, err := SynPldGraph(1<<10, gamma, src)
		if err != nil {
			t.Fatalf("SynPld gamma=%v not realizable: %v", gamma, err)
		}
		if err := g.CheckSimple(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestPaperMaxDegree(t *testing.T) {
	if d := PaperMaxDegree(1<<10, 3.0); d != 32-0 {
		// n^(1/2) = 32
		if d != 32 {
			t.Fatalf("PaperMaxDegree(1024, 3) = %d, want 32", d)
		}
	}
	if d := PaperMaxDegree(100, 2.0); d != 99 {
		t.Fatalf("PaperMaxDegree(100, 2) = %d, want 99 (clamped)", d)
	}
}

func TestRegular(t *testing.T) {
	for _, c := range []struct{ n, d int }{{16, 4}, {16, 5}, {100, 3}, {64, 8}} {
		g, err := Regular(c.n, c.d)
		if err != nil {
			t.Fatalf("Regular(%d, %d): %v", c.n, c.d, err)
		}
		if err := g.CheckSimple(); err != nil {
			t.Fatal(err)
		}
		for v, d := range g.Degrees() {
			if d != c.d {
				t.Fatalf("Regular(%d,%d): node %d has degree %d", c.n, c.d, v, d)
			}
		}
	}
	if _, err := Regular(5, 3); err == nil {
		t.Fatal("odd n*d accepted")
	}
}

func TestGrid2D(t *testing.T) {
	g := Grid2D(4, 5)
	if g.N() != 20 {
		t.Fatalf("grid nodes = %d", g.N())
	}
	if g.M() != 4*4+3*5 { // horizontal + vertical edges
		t.Fatalf("grid edges = %d, want %d", g.M(), 4*4+3*5)
	}
	if err := g.CheckSimple(); err != nil {
		t.Fatal(err)
	}
	comps, _ := graph.ConnectedComponents(g)
	if comps != 1 {
		t.Fatalf("grid has %d components", comps)
	}
}

func TestTable4Corpus(t *testing.T) {
	corpus, err := Table4Corpus(0.25, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(corpus) != len(table4Specs) {
		t.Fatalf("corpus has %d graphs, want %d", len(corpus), len(table4Specs))
	}
	for _, c := range corpus {
		if err := c.G.CheckSimple(); err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		if c.G.M() == 0 {
			t.Fatalf("%s is empty", c.Name)
		}
	}
}

func TestSweepCorpus(t *testing.T) {
	corpus, err := SweepCorpus(100, 1<<20, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(corpus) < 10 {
		t.Fatalf("sweep corpus too small: %d", len(corpus))
	}
	for _, c := range corpus {
		if err := c.G.CheckSimple(); err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		if c.G.M() < 100 {
			t.Fatalf("%s below requested minimum", c.Name)
		}
	}
}
