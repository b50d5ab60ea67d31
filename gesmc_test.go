package gesmc

import (
	"bytes"
	"errors"
	"math"
	"slices"
	"strings"
	"testing"

	"gesmc/internal/gen"
	"gesmc/internal/rng"
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

// FuzzGraphical checks each graphicality test against a constructive
// realization: Erdős–Gallai (IsGraphical) against FromDegrees and
// against Havel–Hakimi run without its Erdős–Gallai guard,
// Fulkerson–Chen–Anstee (IsDigraphical) against Kleitman–Wang, and
// Gale–Ryser (IsBigraphical) against FromBipartiteDegrees. Every
// realization must be simple and carry exactly the requested degrees.
// Each input byte b is one degree, b%32 - 1, so the range checks are
// probed too; split picks where the directed and bipartite sequences
// divide.
func FuzzGraphical(f *testing.F) {
	f.Fuzz(func(t *testing.T, split uint8, data []byte) {
		d := make([]int, len(data))
		for i, b := range data {
			d[i] = int(b%32) - 1
		}

		g, err := FromDegrees(d)
		_, hhErr := gen.HavelHakimi(d)
		if ok := IsGraphical(d); ok != (err == nil) || ok != (hhErr == nil) {
			t.Fatalf("%v: IsGraphical %v, FromDegrees error %v, HavelHakimi error %v", d, ok, err, hhErr)
		}
		if err == nil {
			if err := g.CheckSimple(); err != nil || !slices.Equal(g.Degrees(), d) {
				t.Fatalf("%v: realized degrees %v (%v)", d, g.Degrees(), err)
			}
		}

		// Equal halves, or one extra in-degree when split is odd.
		half := len(d) / 2
		out, in := d[:half], d[half:2*half]
		if split%2 == 1 {
			in = d[half:]
		}
		dg, err := FromInOutDegrees(out, in)
		if ok := IsDigraphical(out, in); ok != (err == nil) {
			t.Fatalf("out %v in %v: IsDigraphical %v, FromInOutDegrees error %v", out, in, ok, err)
		}
		if err == nil {
			if err := dg.CheckSimple(); err != nil || !slices.Equal(dg.OutDegrees(), out) || !slices.Equal(dg.InDegrees(), in) {
				t.Fatalf("out %v in %v: realized %v %v (%v)", out, in, dg.OutDegrees(), dg.InDegrees(), err)
			}
		}

		k := int(split) % (len(d) + 1)
		left, right := d[:k], d[k:]
		bg, err := FromBipartiteDegrees(left, right)
		if ok := IsBigraphical(left, right); ok != (err == nil) {
			t.Fatalf("left %v right %v: IsBigraphical %v, FromBipartiteDegrees error %v", left, right, ok, err)
		}
		if err == nil {
			wantOut := append(slices.Clone(left), make([]int, len(right))...)
			wantIn := append(make([]int, len(left)), right...)
			if err := bg.CheckSimple(); err != nil || !slices.Equal(bg.OutDegrees(), wantOut) || !slices.Equal(bg.InDegrees(), wantIn) {
				t.Fatalf("left %v right %v: realized %v %v (%v)", left, right, bg.OutDegrees(), bg.InDegrees(), err)
			}
		}
	})
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

// TestGeneratePowerLawRejectsDegenerateParameters pins the parameter
// domain of GeneratePowerLaw: below n = 2 the degree range is empty,
// and for gamma <= 1 (or NaN) the paper's maximum degree collapses to
// 1, which would silently yield a perfect matching.
func TestGeneratePowerLawRejectsDegenerateParameters(t *testing.T) {
	cases := []struct {
		n     int
		gamma float64
	}{
		{0, 2.5},
		{1, 2.5},
		{-4, 2.5},
		{100, 1},
		{100, 0.5},
		{100, -2},
		{100, math.NaN()},
		{100, math.Inf(1)},
		{100, math.Inf(-1)},
	}
	for _, c := range cases {
		if g, err := GeneratePowerLaw(c.n, c.gamma, 1); err == nil {
			t.Errorf("n=%d gamma=%v: got a graph with m=%d, want an error", c.n, c.gamma, g.M())
		}
	}
	// Gamma just above 1 puts the whole range [1, n-1] in play rather
	// than collapsing it: the result is not a matching.
	g, err := GeneratePowerLaw(100, 1.01, 1)
	if err != nil {
		t.Fatal(err)
	}
	if g.MaxDegree() < 2 {
		t.Errorf("gamma=1.01: max degree %d, want a spread of degrees", g.MaxDegree())
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
	pld, err := GeneratePowerLaw(128, 2.5, 4)
	if err != nil {
		t.Fatal(err)
	}
	regular, err := GenerateRegular(64, 3)
	if err != nil {
		t.Fatal(err)
	}
	edgeless, err := NewGraph(3, nil)
	if err != nil {
		t.Fatal(err)
	}
	oneEdge, err := NewGraph(3, [][2]uint32{{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	type row struct {
		name string
		g    *Graph
		alg  Algorithm
		err  error
	}
	var rows []row
	for _, alg := range Algorithms() {
		g := pld
		if alg == Exact {
			g = regular // inside the exact tier's regime
		}
		rows = append(rows,
			row{alg.String(), g, alg, nil},
			row{alg.String() + "/edgeless", edgeless, alg, ErrGraphTooSmall},
			row{alg.String() + "/one-edge", oneEdge, alg, ErrGraphTooSmall})
	}
	rows = append(rows, row{"Exact/out-of-regime", pld, Exact, ErrExactUnsupported})

	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			before := r.g.Edges()
			res, err := AnalyzeMixing(r.g, r.alg, 40, 6)
			if !slices.Equal(r.g.Edges(), before) {
				t.Fatal("AnalyzeMixing modified its input graph")
			}
			if r.err != nil {
				if !errors.Is(err, r.err) {
					t.Fatalf("err = %v, want %v", err, r.err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(res.Thinnings, []int{1, 2, 3, 4}) || len(res.NonIndependent) != len(res.Thinnings) {
				t.Fatalf("malformed mixing result %+v", res)
			}
			first, last := res.NonIndependent[0], res.NonIndependent[len(res.NonIndependent)-1]
			if r.alg == Exact {
				// Independent draws: nothing beyond the BIC test's
				// false-positive floor, already at thinning 1.
				if first > 0.1 {
					t.Fatalf("exact draws look autocorrelated: %v", res.NonIndependent)
				}
				return
			}
			if first < last {
				t.Fatalf("autocorrelation did not decay with thinning: %v", res.NonIndependent)
			}
		})
	}
}

func TestAnalyzeMixingSupersteps(t *testing.T) {
	g, err := GeneratePowerLaw(128, 2.5, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		supersteps int
		thinnings  []int // nil: refused
	}{
		{-5, nil}, {0, nil}, {1, nil}, {15, nil},
		{16, []int{1, 2}},
		{40, []int{1, 2, 3, 4}},
		{64, []int{1, 2, 3, 4, 6, 8}},
	} {
		res, err := AnalyzeMixing(g, SeqGlobalES, tc.supersteps, 1)
		if tc.thinnings == nil {
			if !errors.Is(err, ErrInvalidSupersteps) {
				t.Errorf("supersteps=%d: err = %v, want ErrInvalidSupersteps", tc.supersteps, err)
			}
			continue
		}
		if err != nil || !slices.Equal(res.Thinnings, tc.thinnings) {
			t.Errorf("supersteps=%d: thinnings %v, err %v; want %v", tc.supersteps, res.Thinnings, err, tc.thinnings)
		}
	}
}

// TestAnalyzeMixingGoldenCurves pins the SeqES and SeqGlobalES curves to
// the values of the dedicated ES/G-ES harness loop that AnalyzeMixing
// replaced: the steppers draw the same MT19937 stream (TwoDistinct then
// Bool per switch; Perm then Binom per global switch), so the curves
// are bit-identical.
func TestAnalyzeMixingGoldenCurves(t *testing.T) {
	raw, err := gen.SynPldGraph(128, 2.3, rng.NewMT19937(7))
	if err != nil {
		t.Fatal(err)
	}
	g := &Graph{g: raw}
	golden := map[Algorithm][]float64{
		SeqES:       {0.6707317073170732, 0.1524390243902439, 0.07926829268292683, 0.04878048780487805, 0.10365853658536585, 0.17682926829268292},
		SeqGlobalES: {0.4451219512195122, 0.06707317073170732, 0.06707317073170732, 0.07317073170731707, 0.09146341463414634, 0.12804878048780488},
	}
	for alg, want := range golden {
		cfg := defaultSamplerConfig()
		cfg.algorithm, cfg.seed = alg, 99
		res, err := analyzeMixing(g, &cfg, 64)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(res.NonIndependent, want) {
			t.Errorf("%v: curve %v, want %v", alg, res.NonIndependent, want)
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
