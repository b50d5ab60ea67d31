package gesmc

import (
	"context"
	"errors"
	"sort"
	"testing"

	"gesmc/internal/exact"
	"gesmc/internal/graph"
)

// graphKey returns the canonical cell label of a sampled graph: the
// same big-endian encoding of the sorted edge list that
// exact.Enumerate keys its ground-truth realizations with, so sampler
// histograms and the enumeration share a label space.
func graphKey(t *testing.T, g *Graph) string {
	t.Helper()
	edges := make([]graph.Edge, 0, g.M())
	for _, e := range g.Edges() {
		edges = append(edges, graph.MakeEdge(e[0], e[1]))
	}
	sort.Slice(edges, func(i, j int) bool { return edges[i] < edges[j] })
	return exact.Key(edges)
}

// histogram draws count samples from a freshly compiled sampler and
// bins them by canonical key, insisting every draw lands inside the
// enumerated support.
func histogram(t *testing.T, target *Graph, support map[string]bool, count int, opts ...Option) map[string]int {
	t.Helper()
	s, err := NewSampler(target.Clone(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	counts := make(map[string]int, len(support))
	samples, err := s.Collect(context.Background(), count)
	if err != nil {
		t.Fatal(err)
	}
	for _, smp := range samples {
		if err := smp.Graph.CheckSimple(); err != nil {
			t.Fatal(err)
		}
		k := graphKey(t, smp.Graph)
		if !support[k] {
			t.Fatalf("sampler produced a graph outside the enumerated support")
		}
		counts[k]++
	}
	return counts
}

// enumerateSupport lists the realizations of degrees as a key set.
func enumerateSupport(t *testing.T, degrees []int, want int) map[string]bool {
	t.Helper()
	all, err := exact.Enumerate(degrees, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != want {
		t.Fatalf("enumeration found %d realizations, want %d", len(all), want)
	}
	support := make(map[string]bool, len(all))
	for _, edges := range all {
		support[exact.Key(edges)] = true
	}
	return support
}

// twoSampleChiSquare computes the two-sample chi-square statistic of
// two equal-size histograms over the same support (df = cells-1 when
// both histograms cover every cell).
func twoSampleChiSquare(a, b map[string]int, support map[string]bool) float64 {
	var chi float64
	for k := range support {
		na, nb := float64(a[k]), float64(b[k])
		if na+nb == 0 {
			continue
		}
		d := na - nb
		chi += d * d / (na + nb)
	}
	return chi
}

func TestExactSamplerPublicAPI(t *testing.T) {
	target, err := GenerateRegular(16, 3)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSampler(target, WithAlgorithm(Exact), WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Algorithm() != "Exact" {
		t.Fatalf("algorithm name %q", s.Algorithm())
	}
	// i.i.d. draws: the schedule collapses to one superstep per sample.
	if s.BurnIn() != 1 || s.Thinning() != 1 {
		t.Fatalf("exact schedule burnIn=%d thin=%d, want 1/1", s.BurnIn(), s.Thinning())
	}
	wantDeg := append([]int(nil), target.Degrees()...)
	samples, err := s.Collect(context.Background(), 40)
	if err != nil {
		t.Fatal(err)
	}
	for _, smp := range samples {
		if err := smp.Graph.CheckSimple(); err != nil {
			t.Fatal(err)
		}
		for v, d := range smp.Graph.Degrees() {
			if d != wantDeg[v] {
				t.Fatalf("draw %d changed degree of node %d", smp.Index, v)
			}
		}
	}
	st := s.Stats()
	if st.Algorithm != "Exact" {
		t.Fatalf("stats algorithm %q", st.Algorithm)
	}
	// Every attempt either restarts or lands a sample, and every restart
	// is attributed to a defect class.
	if st.Attempted != st.Accepted+st.Restarts {
		t.Fatalf("attempted=%d != accepted=%d + restarts=%d", st.Attempted, st.Accepted, st.Restarts)
	}
	if st.LoopDefects+st.MultiDefects != st.Restarts {
		t.Fatalf("defects %d+%d != restarts %d", st.LoopDefects, st.MultiDefects, st.Restarts)
	}
	if st.Accepted != 40 {
		t.Fatalf("accepted=%d, want 40", st.Accepted)
	}
}

func TestExactDeterminismAndResume(t *testing.T) {
	target, err := GenerateRegular(12, 3)
	if err != nil {
		t.Fatal(err)
	}
	draw := func(seed uint64, skip, count int) [][][2]uint32 {
		s, err := NewSampler(target.Clone(), WithAlgorithm(Exact), WithSeed(seed))
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if skip > 0 {
			if _, err := s.FastForwardTo(context.Background(), skip); err != nil {
				t.Fatal(err)
			}
		}
		samples, err := s.Collect(context.Background(), count)
		if err != nil {
			t.Fatal(err)
		}
		out := make([][][2]uint32, len(samples))
		for i, smp := range samples {
			out[i] = smp.Graph.Edges()
		}
		return out
	}
	full := draw(99, 0, 8)
	again := draw(99, 0, 8)
	suffix := draw(99, 5, 3)
	other := draw(100, 0, 8)
	for i := range full {
		if len(full[i]) != len(again[i]) {
			t.Fatal("same seed diverged")
		}
		for j := range full[i] {
			if full[i][j] != again[i][j] {
				t.Fatal("same seed diverged")
			}
		}
	}
	// Resume semantics: fast-forwarding a fresh sampler to index k and
	// drawing yields exactly the suffix of the uninterrupted stream —
	// the property the service pool and resume cursors rely on.
	for i := range suffix {
		for j := range suffix[i] {
			if suffix[i][j] != full[5+i][j] {
				t.Fatalf("resumed draw %d differs from full stream", 5+i)
			}
		}
	}
	diverged := false
	for i := range full {
		if len(full[i]) != len(other[i]) {
			diverged = true
			break
		}
		for j := range full[i] {
			if full[i][j] != other[i][j] {
				diverged = true
				break
			}
		}
	}
	if !diverged {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestExactRejectsScheduleAndConstraints(t *testing.T) {
	target, err := GenerateRegular(12, 3)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		opt  Option
		want error
	}{
		{"burn-in", WithBurnIn(5), ErrExactSchedule},
		{"thinning", WithThinning(5), ErrExactSchedule},
		{"swaps-per-edge", WithSwapsPerEdge(2), ErrExactSchedule},
		{"constraint", WithConstraint(Connected()), ErrUnsupportedConstraint},
	}
	for _, tc := range cases {
		_, err := NewSampler(target.Clone(), WithAlgorithm(Exact), WithSeed(1), tc.opt)
		if !errors.Is(err, tc.want) {
			t.Fatalf("%s: got %v, want %v", tc.name, err, tc.want)
		}
	}
}

func TestExactRejectsDirectedTargets(t *testing.T) {
	dg, err := FromInOutDegrees([]int{1, 1, 0}, []int{0, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewSampler(dg, WithAlgorithm(Exact)); !errors.Is(err, ErrUnsupportedAlgorithm) {
		t.Fatalf("directed exact: got %v, want ErrUnsupportedAlgorithm", err)
	}
}

// TestExactRegimeBoundary pins the tractability gate at the public
// API: the GNP base graph used by TestRandomizeAllAlgorithms lies
// outside the rejection regime and must degrade to the typed error,
// never silently fall back to MCMC.
func TestExactRegimeBoundary(t *testing.T) {
	dense := GenerateGNP(128, 0.08, 3)
	_, err := NewSampler(dense, WithAlgorithm(Exact), WithSeed(1))
	if !errors.Is(err, ErrExactUnsupported) {
		t.Fatalf("dense target: got %v, want ErrExactUnsupported", err)
	}
	k20 := make([]int, 20)
	for i := range k20 {
		k20[i] = 19
	}
	complete, err := FromDegrees(k20)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewSampler(complete, WithAlgorithm(Exact)); !errors.Is(err, ErrExactUnsupported) {
		t.Fatalf("K20 degrees: got %v, want ErrExactUnsupported", err)
	}
}

// TestExactOracleDifferential is the exact-as-oracle suite: the
// provably uniform sampler pins the target distribution over the
// exhaustively enumerated realizations, and each MCMC chain's
// empirical histogram is compared against it with a two-sample
// chi-square. A biased chain (or a biased exact sampler) fails; two
// uniform samplers agree. Sequences: the hexagon degree sequence
// 2^6 (70 labeled realizations) for the switching and Curveball
// chains, and the perfect-matching sequence 1^6 (15 realizations)
// for the sequential chain.
func TestExactOracleDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("chi-square sampling suite")
	}
	const draws = 7000
	// p = 0.001 critical values: chi2(df=69) = 111.1, chi2(df=14) = 36.1.
	hex := enumerateSupport(t, []int{2, 2, 2, 2, 2, 2}, 70)
	match := enumerateSupport(t, []int{1, 1, 1, 1, 1, 1}, 15)

	hexTarget, err := FromDegrees([]int{2, 2, 2, 2, 2, 2})
	if err != nil {
		t.Fatal(err)
	}
	matchTarget, err := FromDegrees([]int{1, 1, 1, 1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}

	oracle := histogram(t, hexTarget, hex, draws, WithAlgorithm(Exact), WithSeed(1001))
	for _, alg := range []Algorithm{ParES, ParGlobalES, GlobalCurveball} {
		mcmc := histogram(t, hexTarget, hex, draws,
			WithAlgorithm(alg), WithSeed(2002), WithWorkers(2),
			WithBurnIn(60), WithThinning(25))
		if chi := twoSampleChiSquare(oracle, mcmc, hex); chi > 120 {
			t.Errorf("%v vs exact oracle on 2^6: chi-square %.1f > 120 (df=69)", alg, chi)
		}
	}

	matchOracle := histogram(t, matchTarget, match, draws, WithAlgorithm(Exact), WithSeed(3003))
	mcmc := histogram(t, matchTarget, match, draws,
		WithAlgorithm(SeqES), WithSeed(4004), WithBurnIn(60), WithThinning(25))
	if chi := twoSampleChiSquare(matchOracle, mcmc, match); chi > 42 {
		t.Errorf("SeqES vs exact oracle on 1^6: chi-square %.1f > 42 (df=14)", chi)
	}
}
