package gesmc

import (
	"bytes"
	"strings"
	"testing"
)

func TestNewGraphValidation(t *testing.T) {
	if _, err := NewGraph(3, [][2]uint32{{0, 0}}); err == nil {
		t.Fatal("loop accepted")
	}
	if _, err := NewGraph(3, [][2]uint32{{0, 1}, {1, 0}}); err == nil {
		t.Fatal("duplicate accepted")
	}
	g, err := NewGraph(3, [][2]uint32{{0, 1}, {1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 3 || g.M() != 2 {
		t.Fatalf("n=%d m=%d", g.N(), g.M())
	}
}

func TestFromDegrees(t *testing.T) {
	g, err := FromDegrees([]int{3, 3, 3, 3})
	if err != nil {
		t.Fatal(err)
	}
	if g.M() != 6 {
		t.Fatalf("K4 should have 6 edges, got %d", g.M())
	}
	if _, err := FromDegrees([]int{3, 3, 1, 1}); err == nil {
		t.Fatal("non-graphical sequence accepted")
	}
	if !IsGraphical([]int{2, 2, 2}) || IsGraphical([]int{1, 1, 1}) {
		t.Fatal("IsGraphical wrong")
	}
}

func TestGenerators(t *testing.T) {
	g := GenerateGNP(100, 0.1, 1)
	if g.N() != 100 || g.M() == 0 {
		t.Fatal("GNP degenerate")
	}
	pl, err := GeneratePowerLaw(256, 2.5, 2)
	if err != nil {
		t.Fatal(err)
	}
	if pl.MaxDegree() < 2 {
		t.Fatal("power law suspiciously flat")
	}
	reg, err := GenerateRegular(32, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range reg.Degrees() {
		if d != 4 {
			t.Fatal("not regular")
		}
	}
	grid := GenerateGrid(4, 4)
	if grid.N() != 16 || grid.ConnectedComponents() != 1 {
		t.Fatal("grid degenerate")
	}
}

// stepOnce is the one-shot pattern: compile a Sampler over target,
// advance it k supersteps, and release it.
func stepOnce(target Target, k int, opts ...Option) (Stats, error) {
	s, err := NewSampler(target, opts...)
	if err != nil {
		return Stats{}, err
	}
	defer s.Close()
	return s.Step(k)
}

func TestRandomizeAllAlgorithms(t *testing.T) {
	base := GenerateGNP(128, 0.08, 3)
	// The GNP target's degree tail lies outside the exact tier's
	// rejection regime (that boundary is pinned in exact_api_test.go),
	// so Exact exercises a bounded-degree target instead.
	regular, err := GenerateRegular(32, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range Algorithms() {
		g := base.Clone()
		if alg == Exact {
			g = regular.Clone()
		}
		wantDeg := g.Degrees()
		stats, err := stepOnce(g, 4, WithAlgorithm(alg), WithWorkers(2), WithSeed(11))
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if err := g.CheckSimple(); err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		for v, d := range g.Degrees() {
			if d != wantDeg[v] {
				t.Fatalf("%v changed degrees", alg)
			}
		}
		if stats.Accepted == 0 || stats.Attempted == 0 {
			t.Fatalf("%v: empty stats %+v", alg, stats)
		}
		if stats.Algorithm != alg.String() {
			t.Fatalf("stats name %q != %q", stats.Algorithm, alg.String())
		}
	}
}

func TestOptionsSuperstepDefaults(t *testing.T) {
	g := GenerateGNP(64, 0.1, 1)
	burnIn := func(opts ...Option) int {
		s, err := NewSampler(g.Clone(), opts...)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		return s.BurnIn()
	}
	if s := burnIn(); s != 20 {
		t.Fatalf("default burn-in = %d, want 20 (10 swaps/edge)", s)
	}
	if s := burnIn(WithSwapsPerEdge(15)); s != 30 {
		t.Fatalf("15 swaps/edge -> %d supersteps, want 30", s)
	}
	if s := burnIn(WithBurnIn(7)); s != 7 {
		t.Fatalf("explicit burn-in ignored: %d", s)
	}
}

func TestParseAlgorithmRoundTrip(t *testing.T) {
	for _, alg := range Algorithms() {
		got, err := ParseAlgorithm(alg.String())
		if err != nil || got != alg {
			t.Fatalf("round trip failed for %v: %v, %v", alg, got, err)
		}
	}
	if _, err := ParseAlgorithm("nope"); err == nil {
		t.Fatal("bogus name accepted")
	}
}

func TestSampleFromDegrees(t *testing.T) {
	deg := []int{4, 3, 3, 2, 2, 2, 2, 2, 2, 2}
	g, err := FromDegrees(deg)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := stepOnce(g, 20, WithAlgorithm(SeqGlobalES), WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	for v, d := range g.Degrees() {
		if d != deg[v] {
			t.Fatalf("degree mismatch at %d", v)
		}
	}
	if stats.Accepted == 0 {
		t.Fatal("no switches accepted")
	}
}

func TestReadWriteRoundTrip(t *testing.T) {
	g := GenerateGNP(40, 0.2, 9)
	var buf bytes.Buffer
	if err := g.Write(&buf); err != nil {
		t.Fatal(err)
	}
	h, err := ReadGraph(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if h.N() != g.N() || h.M() != g.M() {
		t.Fatal("round trip changed size")
	}
}

func TestReadGraphCleansInput(t *testing.T) {
	g, err := ReadGraph(strings.NewReader("# c\n0 1\n1 0\n2 2\n1 2\n"))
	if err != nil {
		t.Fatal(err)
	}
	if g.M() != 2 {
		t.Fatalf("m = %d, want 2", g.M())
	}
}

func TestMetricsExposed(t *testing.T) {
	g, err := NewGraph(4, [][2]uint32{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	if g.Triangles() != 4 {
		t.Fatalf("K4 triangles = %d", g.Triangles())
	}
	if g.ClusteringCoefficient() != 1 {
		t.Fatal("K4 transitivity != 1")
	}
	if g.Density() != 1 || g.AverageDegree() != 3 {
		t.Fatal("density/average degree wrong")
	}
	if !g.HasEdge(2, 3) || g.HasEdge(0, 0) {
		t.Fatal("HasEdge wrong")
	}
}

func TestAnalyzeMixingShape(t *testing.T) {
	g, err := GeneratePowerLaw(128, 2.5, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, chain := range []Chain{ChainES, ChainGlobalES} {
		res := AnalyzeMixing(g, chain, 40, 6)
		if len(res.Thinnings) == 0 || len(res.Thinnings) != len(res.NonIndependent) {
			t.Fatal("malformed mixing result")
		}
		if res.NonIndependent[0] < res.NonIndependent[len(res.NonIndependent)-1] {
			t.Fatal("autocorrelation did not decay with thinning")
		}
	}
}

func TestRandomizeDeterministic(t *testing.T) {
	base := GenerateGNP(64, 0.15, 13)
	a, b := base.Clone(), base.Clone()
	opts := []Option{WithAlgorithm(ParGlobalES), WithWorkers(4), WithSeed(21)}
	if _, err := stepOnce(a, 6, opts...); err != nil {
		t.Fatal(err)
	}
	if _, err := stepOnce(b, 6, opts...); err != nil {
		t.Fatal(err)
	}
	ae, be := a.Edges(), b.Edges()
	for i := range ae {
		if ae[i] != be[i] {
			t.Fatal("one-shot sampling not deterministic for fixed options")
		}
	}
}
