package gesmc

import (
	"context"
	"errors"
	"math"
	"testing"
)

func TestNewSamplerOptionValidation(t *testing.T) {
	g := GenerateGNP(64, 0.1, 1)
	cases := []struct {
		name string
		opts []Option
		want error
	}{
		{"negative workers", []Option{WithWorkers(-1)}, ErrInvalidWorkers},
		{"zero workers", []Option{WithWorkers(0)}, ErrInvalidWorkers},
		{"loopprob above 1", []Option{WithLoopProb(1.5)}, ErrInvalidLoopProb},
		{"loopprob one", []Option{WithLoopProb(1)}, ErrInvalidLoopProb},
		{"loopprob negative", []Option{WithLoopProb(-0.1)}, ErrInvalidLoopProb},
		{"zero thinning", []Option{WithThinning(0)}, ErrInvalidThinning},
		{"zero burn-in", []Option{WithBurnIn(0)}, ErrInvalidBurnIn},
		{"negative swaps", []Option{WithSwapsPerEdge(-2)}, ErrInvalidSwapsPerEdge},
		{"burn-in overflowing int", []Option{WithSwapsPerEdge(1e300)}, ErrInvalidSwapsPerEdge},
		{"bogus algorithm", []Option{WithAlgorithm(Algorithm(99))}, ErrUnknownAlgorithm},
	}
	for _, c := range cases {
		if _, err := NewSampler(g, c.opts...); !errors.Is(err, c.want) {
			t.Errorf("%s: err = %v, want %v", c.name, err, c.want)
		}
	}

	if _, err := NewSampler(nil); !errors.Is(err, ErrNilTarget) {
		t.Errorf("nil target: err = %v", err)
	}
	if _, err := NewSampler(&DiGraph{}); !errors.Is(err, ErrNilTarget) {
		t.Errorf("empty DiGraph: err = %v", err)
	}
	tiny, err := NewGraph(3, [][2]uint32{{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewSampler(tiny); !errors.Is(err, ErrGraphTooSmall) {
		t.Errorf("one-edge graph: err = %v, want ErrGraphTooSmall", err)
	}
	if _, err := NewSampler(tiny, WithAlgorithm(GlobalCurveball)); !errors.Is(err, ErrGraphTooSmall) {
		t.Errorf("one-edge curveball: err = %v, want ErrGraphTooSmall", err)
	}
}

func TestSamplerUnsupportedDirectedAlgorithms(t *testing.T) {
	g, err := FromInOutDegrees([]int{2, 1, 1, 0}, []int{0, 1, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range []Algorithm{ParES, Curveball, GlobalCurveball, Exact} {
		if _, err := NewSampler(g, WithAlgorithm(alg)); !errors.Is(err, ErrUnsupportedAlgorithm) {
			t.Errorf("%v on digraph: err = %v, want ErrUnsupportedAlgorithm", alg, err)
		}
	}
}

// TestSamplerDeterminism: equal (target, options) yield identical
// ensembles for a fixed worker count, and the sequential chains are
// additionally invariant under the worker count (it only gates
// parallelism, never the random stream).
func TestSamplerDeterminism(t *testing.T) {
	base := GenerateGNP(128, 0.1, 3)
	draw := func(alg Algorithm, workers int) [][][2]uint32 {
		s, err := NewSampler(base.Clone(),
			WithAlgorithm(alg), WithWorkers(workers), WithSeed(11),
			WithBurnIn(6), WithThinning(2))
		if err != nil {
			t.Fatal(err)
		}
		samples, err := s.Collect(context.Background(), 4)
		if err != nil {
			t.Fatal(err)
		}
		out := make([][][2]uint32, len(samples))
		for i, smp := range samples {
			out[i] = smp.Graph.Edges()
		}
		return out
	}
	same := func(a, b [][][2]uint32) bool {
		for i := range a {
			for j := range a[i] {
				if a[i][j] != b[i][j] {
					return false
				}
			}
		}
		return true
	}
	for _, alg := range []Algorithm{SeqGlobalES, ParGlobalES, GlobalCurveball} {
		if !same(draw(alg, 3), draw(alg, 3)) {
			t.Errorf("%v: repeated run with equal options differs", alg)
		}
	}
	for _, alg := range []Algorithm{SeqES, SeqGlobalES, GlobalCurveball} {
		if !same(draw(alg, 1), draw(alg, 4)) {
			t.Errorf("%v: sequential chain depends on worker count", alg)
		}
	}
}

// TestEnsembleStreams: Ensemble delivers count samples with the right
// cadence (burn-in once, thinning afterwards), pairwise-distinct
// topologies, preserved degrees, and per-sample stats.
func TestEnsembleStreams(t *testing.T) {
	base, err := GeneratePowerLaw(256, 2.4, 9)
	if err != nil {
		t.Fatal(err)
	}
	wantDeg := base.Degrees()
	s, err := NewSampler(base, WithAlgorithm(ParGlobalES), WithWorkers(2), WithSeed(4),
		WithBurnIn(10), WithThinning(3))
	if err != nil {
		t.Fatal(err)
	}
	const count = 5
	var samples []Sample
	for smp := range s.Ensemble(context.Background(), count) {
		if smp.Err != nil {
			t.Fatal(smp.Err)
		}
		samples = append(samples, smp)
	}
	if len(samples) != count {
		t.Fatalf("got %d samples, want %d", len(samples), count)
	}
	if want := 10 + (count-1)*3; s.Supersteps() != want {
		t.Fatalf("supersteps = %d, want %d (one burn-in, then thinning)", s.Supersteps(), want)
	}
	for i, smp := range samples {
		if smp.Index != i {
			t.Fatalf("sample %d has index %d", i, smp.Index)
		}
		if smp.DiGraph != nil || smp.Graph == nil {
			t.Fatal("undirected ensemble must fill Graph only")
		}
		if err := smp.Graph.CheckSimple(); err != nil {
			t.Fatalf("sample %d: %v", i, err)
		}
		for v, d := range smp.Graph.Degrees() {
			if d != wantDeg[v] {
				t.Fatalf("sample %d changed degree of node %d", i, v)
			}
		}
		if smp.Stats.Attempted == 0 || smp.Stats.Accepted == 0 {
			t.Fatalf("sample %d: empty stats %+v", i, smp.Stats)
		}
		wantSteps := 3
		if i == 0 {
			wantSteps = 10
		}
		if smp.Stats.Supersteps != wantSteps {
			t.Fatalf("sample %d advanced %d supersteps, want %d", i, smp.Stats.Supersteps, wantSteps)
		}
	}
	// Pairwise distinct edge sets (thinning 3 on a 256-node power law
	// rewires far more than enough edges to tell samples apart).
	for i := 0; i < len(samples); i++ {
		for j := i + 1; j < len(samples); j++ {
			if samples[i].Graph.raw().CanonicalKey() == samples[j].Graph.raw().CanonicalKey() {
				t.Fatalf("samples %d and %d are identical", i, j)
			}
		}
	}
	// The samples are snapshots: advancing the sampler must not mutate
	// previously returned graphs.
	key := samples[0].Graph.raw().CanonicalKey()
	if _, err := s.Sample(); err != nil {
		t.Fatal(err)
	}
	if samples[0].Graph.raw().CanonicalKey() != key {
		t.Fatal("later sampling mutated an already-delivered sample")
	}
}

// TestEnsembleDirectedAndBipartite: the same Sampler API drives
// directed and bipartite targets.
func TestEnsembleDirectedAndBipartite(t *testing.T) {
	dg, err := FromInOutDegrees([]int{3, 2, 2, 1, 1, 1}, []int{1, 1, 2, 2, 2, 2})
	if err != nil {
		t.Fatal(err)
	}
	outDeg, inDeg := dg.OutDegrees(), dg.InDegrees()
	s, err := NewSampler(dg, WithAlgorithm(ParGlobalES), WithWorkers(2), WithSeed(8), WithThinning(4))
	if err != nil {
		t.Fatal(err)
	}
	for smp := range s.Ensemble(context.Background(), 3) {
		if smp.Err != nil {
			t.Fatal(smp.Err)
		}
		if smp.Graph != nil || smp.DiGraph == nil {
			t.Fatal("directed ensemble must fill DiGraph only")
		}
		if err := smp.DiGraph.CheckSimple(); err != nil {
			t.Fatal(err)
		}
		gotOut, gotIn := smp.DiGraph.OutDegrees(), smp.DiGraph.InDegrees()
		for v := range outDeg {
			if gotOut[v] != outDeg[v] || gotIn[v] != inDeg[v] {
				t.Fatalf("sample %d broke directed degrees at node %d", smp.Index, v)
			}
		}
	}

	bp, err := FromBipartiteDegrees([]int{2, 2, 2, 1}, []int{2, 2, 2, 1})
	if err != nil {
		t.Fatal(err)
	}
	bs, err := NewSampler(bp, WithAlgorithm(SeqGlobalES), WithSeed(2), WithBurnIn(12), WithThinning(6))
	if err != nil {
		t.Fatal(err)
	}
	for smp := range bs.Ensemble(context.Background(), 3) {
		if smp.Err != nil {
			t.Fatal(smp.Err)
		}
		for _, a := range smp.DiGraph.Arcs() {
			if a[0] >= 4 || a[1] < 4 {
				t.Fatalf("sample %d arc %v broke the bipartition", smp.Index, a)
			}
		}
	}
}

// TestEnsembleCancellation: cancelling the context mid-ensemble closes
// the stream after a terminal Sample carrying the context error.
func TestEnsembleCancellation(t *testing.T) {
	base := GenerateGNP(128, 0.1, 5)
	s, err := NewSampler(base, WithAlgorithm(SeqGlobalES), WithSeed(1), WithBurnIn(4), WithThinning(2))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var delivered, errored int
	for smp := range s.Ensemble(ctx, 1000) {
		if smp.Err != nil {
			if !errors.Is(smp.Err, context.Canceled) {
				t.Fatalf("terminal err = %v", smp.Err)
			}
			errored++
			continue
		}
		delivered++
		if delivered == 2 {
			cancel()
		}
	}
	cancel()
	if delivered >= 1000 || delivered < 2 {
		t.Fatalf("delivered %d samples despite cancellation", delivered)
	}
	if errored > 1 {
		t.Fatalf("got %d terminal error samples, want at most 1", errored)
	}
	// The target is still a valid graph and the sampler still works.
	if err := base.CheckSimple(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Sample(); err != nil {
		t.Fatal(err)
	}
}

// TestStepContextPreCancelled: a cancelled context stops Step before
// any superstep runs.
func TestStepContextPreCancelled(t *testing.T) {
	base := GenerateGNP(64, 0.15, 6)
	before := base.Edges()
	s, err := NewSampler(base, WithAlgorithm(ParGlobalES), WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	st, err := s.StepContext(ctx, 50)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	if st.Supersteps != 0 {
		t.Fatalf("ran %d supersteps after cancellation", st.Supersteps)
	}
	after := base.Edges()
	for i := range before {
		if before[i] != after[i] {
			t.Fatal("cancelled step mutated the graph")
		}
	}
}

// TestCurveballPublicEnum: both trade chains are first-class public
// algorithms on undirected targets.
func TestCurveballPublicEnum(t *testing.T) {
	for _, alg := range []Algorithm{Curveball, GlobalCurveball} {
		got, err := ParseAlgorithm(alg.String())
		if err != nil || got != alg {
			t.Fatalf("round trip failed for %v: %v, %v", alg, got, err)
		}
		base := GenerateGNP(96, 0.12, 13)
		wantDeg := base.Degrees()
		stats, err := stepOnce(base, 6, WithAlgorithm(alg), WithSeed(21))
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if stats.Algorithm != alg.String() {
			t.Fatalf("stats name %q != %q", stats.Algorithm, alg.String())
		}
		if stats.Attempted == 0 || stats.Accepted != stats.Attempted {
			t.Fatalf("%v: trade stats wrong: %+v", alg, stats)
		}
		if err := base.CheckSimple(); err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		for v, d := range base.Degrees() {
			if d != wantDeg[v] {
				t.Fatalf("%v changed degree of node %d", alg, v)
			}
		}
	}
}

// TestProgressCallback: WithProgress fires once per superstep with
// monotone counters.
func TestProgressCallback(t *testing.T) {
	base := GenerateGNP(64, 0.15, 4)
	var calls []Progress
	s, err := NewSampler(base,
		WithAlgorithm(SeqGlobalES), WithSeed(9), WithBurnIn(5), WithThinning(2),
		WithProgress(func(p Progress) { calls = append(calls, p) }))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Sample(); err != nil { // burn-in: 5 supersteps
		t.Fatal(err)
	}
	if _, err := s.Sample(); err != nil { // thinning: 2 supersteps
		t.Fatal(err)
	}
	if len(calls) != 7 {
		t.Fatalf("progress fired %d times, want 7", len(calls))
	}
	for i, p := range calls {
		if p.Supersteps != i+1 {
			t.Fatalf("call %d reports %d supersteps", i, p.Supersteps)
		}
	}
	if calls[4].Samples != 0 || calls[6].Samples != 1 {
		t.Fatalf("sample counts wrong: %+v", calls)
	}
}

// TestHasEdgeIndexInvalidation: HasEdge answers from the lazy index and
// stays correct across in-place mutation by the sampler.
func TestHasEdgeIndexInvalidation(t *testing.T) {
	g := GenerateGNP(128, 0.08, 17)
	check := func() {
		seen := map[[2]uint32]bool{}
		for _, e := range g.Edges() {
			seen[e] = true
			if !g.HasEdge(e[0], e[1]) || !g.HasEdge(e[1], e[0]) {
				t.Fatalf("HasEdge misses edge %v", e)
			}
		}
		misses := 0
		for u := uint32(0); u < 20; u++ {
			for v := u + 1; v < 20; v++ {
				if !seen[[2]uint32{u, v}] {
					misses++
					if g.HasEdge(u, v) {
						t.Fatalf("HasEdge invents edge {%d,%d}", u, v)
					}
				}
			}
		}
		if misses == 0 {
			t.Fatal("test graph too dense to exercise negatives")
		}
	}
	check()
	if _, err := stepOnce(g, 6, WithAlgorithm(ParGlobalES), WithWorkers(2), WithSeed(1)); err != nil {
		t.Fatal(err)
	}
	check() // index must have been invalidated and rebuilt
	if g.HasEdge(0, 0) || g.HasEdge(500, 1) {
		t.Fatal("loop or out-of-range accepted")
	}
}

// TestFastForwardToValidation: a resume index whose superstep position
// burnIn + index·thinning is negative or overflows int is refused with
// ErrInvalidCount and leaves the chain where it was; a reachable one
// lands the next Sample on the canonical position.
func TestFastForwardToValidation(t *testing.T) {
	g := GenerateGNP(40, 0.2, 3)
	cases := []struct {
		name  string
		opts  []Option
		burn  bool // draw one sample first
		index int
		want  error
	}{
		{"negative index", nil, false, -1, ErrInvalidCount},
		{"index times thinning overflows", []Option{WithThinning(1 << 32)}, false, 1 << 32, ErrInvalidCount},
		{"burn-in plus position overflows", []Option{WithBurnIn(math.MaxInt), WithThinning(1)}, false, 1, ErrInvalidCount},
		{"overflow on a burned chain", []Option{WithBurnIn(2), WithThinning(math.MaxInt / 2)}, true, 3, ErrInvalidCount},
		{"behind a burned chain", []Option{WithBurnIn(5), WithThinning(1)}, true, 0, ErrResumeBehind},
		{"reachable", []Option{WithBurnIn(3), WithThinning(2)}, false, 4, nil},
		{"reachable on a burned chain", []Option{WithBurnIn(3), WithThinning(2)}, true, 4, nil},
	}
	for _, c := range cases {
		s, err := NewSampler(g.Clone(), append([]Option{WithSeed(1)}, c.opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		if c.burn {
			if _, err := s.Sample(); err != nil {
				t.Fatal(err)
			}
		}
		at := s.Supersteps()
		_, err = s.FastForwardTo(context.Background(), c.index)
		if !errors.Is(err, c.want) {
			t.Errorf("%s: err = %v, want %v", c.name, err, c.want)
		}
		if err != nil {
			if s.Supersteps() != at {
				t.Errorf("%s: refused fast-forward moved the chain %d -> %d", c.name, at, s.Supersteps())
			}
		} else {
			if _, err := s.Sample(); err != nil {
				t.Fatal(err)
			}
			if want := s.BurnIn() + c.index*s.Thinning(); s.Supersteps() != want {
				t.Errorf("%s: sample at superstep %d, want %d", c.name, s.Supersteps(), want)
			}
		}
		s.Close()
	}
}
