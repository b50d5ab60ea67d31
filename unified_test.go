package gesmc

import (
	"context"
	"testing"
)

// The unified-kernel guarantees at the public surface: every parallel
// chain accepts WithWorkers, populates the rounds instrumentation, and
// the trade chains are bit-identical for every worker count.

func collectEdges(t *testing.T, g *Graph, alg Algorithm, workers, steps int) [][2]uint32 {
	t.Helper()
	s, err := NewSampler(g.Clone(), WithAlgorithm(alg), WithWorkers(workers), WithSeed(21))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Step(steps); err != nil {
		t.Fatal(err)
	}
	edges := make([][2]uint32, 0)
	target := s.target.(*Graph)
	return append(edges, target.Edges()...)
}

// TestWorkerIdentityAllChains: every chain served through the
// gang-scheduled kernel produces bit-identical edge lists at every
// worker count (sequential chains ignore the worker count).
func TestWorkerIdentityAllChains(t *testing.T) {
	g := GenerateGNP(160, 0.08, 6)
	for _, alg := range []Algorithm{SeqES, ParES, ParGlobalES, Curveball, GlobalCurveball} {
		var want [][2]uint32
		for _, w := range []int{1, 2, 4, 8} {
			s, err := NewSampler(g.Clone(), WithAlgorithm(alg), WithWorkers(w), WithSeed(33))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.Step(4); err != nil {
				t.Fatal(err)
			}
			got := s.target.(*Graph).Edges()
			s.Close()
			if want == nil {
				want = append([][2]uint32(nil), got...)
				continue
			}
			if len(got) != len(want) {
				t.Fatalf("%v w=%d: edge count %d, want %d", alg, w, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%v w=%d: edge list diverges at %d", alg, w, i)
				}
			}
		}
	}
}

// TestWorkerIdentityDirected mirrors the cross-worker check for the
// directed parallel chain on a bipartite target.
func TestWorkerIdentityDirected(t *testing.T) {
	dg, err := FromBipartiteDegrees([]int{3, 2, 2, 1, 1, 1, 2}, []int{2, 2, 1, 2, 2, 2, 1})
	if err != nil {
		t.Fatal(err)
	}
	var want [][2]uint32
	for _, w := range []int{1, 2, 4} {
		s, err := NewSampler(dg.Clone(), WithAlgorithm(ParGlobalES), WithWorkers(w), WithSeed(8))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Step(6); err != nil {
			t.Fatal(err)
		}
		got := s.target.(*DiGraph).Arcs()
		s.Close()
		if want == nil {
			want = append([][2]uint32(nil), got...)
			continue
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("w=%d: arc list diverges at %d", w, i)
			}
		}
	}
}

// TestSamplerCloseThenTargetUsable: Close releases the gang but leaves
// the target's state intact and clonable.
func TestSamplerCloseThenTargetUsable(t *testing.T) {
	g := GenerateGNP(96, 0.1, 12)
	s, err := NewSampler(g, WithAlgorithm(ParGlobalES), WithWorkers(4), WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Step(3); err != nil {
		t.Fatal(err)
	}
	before := g.M()
	s.Close()
	if g.M() != before || g.Clone().M() != before {
		t.Fatal("target state damaged by Close")
	}
}

func TestCurveballWorkersBitIdentical(t *testing.T) {
	g := GenerateGNP(160, 0.08, 4)
	for _, alg := range []Algorithm{Curveball, GlobalCurveball} {
		var want [][2]uint32
		for _, w := range []int{1, 2, 4, 8} {
			got := collectEdges(t, g, alg, w, 10)
			if want == nil {
				want = got
				continue
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%v: workers=%d diverges at edge %d", alg, w, i)
				}
			}
		}
	}
}

func TestGlobalCurveballWithWorkersIsValidAndInstrumented(t *testing.T) {
	// The acceptance criterion of the unified kernel: GlobalCurveball +
	// WithWorkers is a valid combination and reports the same RunStats
	// shape as the parallel switching chains.
	g := GenerateGNP(256, 0.06, 7)
	s, err := NewSampler(g, WithAlgorithm(GlobalCurveball), WithWorkers(4), WithSeed(3))
	if err != nil {
		t.Fatalf("GlobalCurveball with workers rejected: %v", err)
	}
	stats, err := s.Step(6)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Attempted == 0 || stats.Accepted != stats.Attempted {
		t.Fatalf("trade accounting broken: %+v", stats)
	}
	if stats.AvgRounds < 1 {
		t.Fatalf("rounds instrumentation missing for the trade kernel: %+v", stats)
	}
	if err := s.target.(*Graph).CheckSimple(); err != nil {
		t.Fatal(err)
	}
}

func TestCurveballResumedSplitsBitIdentical(t *testing.T) {
	g := GenerateGNP(128, 0.1, 9)
	one, err := NewSampler(g.Clone(), WithAlgorithm(GlobalCurveball), WithWorkers(3), WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := one.Step(9); err != nil {
		t.Fatal(err)
	}
	split, err := NewSampler(g.Clone(), WithAlgorithm(GlobalCurveball), WithWorkers(3), WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{2, 4, 0, 3} {
		if _, err := split.StepContext(context.Background(), k); err != nil {
			t.Fatal(err)
		}
	}
	a := one.target.(*Graph).Edges()
	b := split.target.(*Graph).Edges()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("resumed split diverges at edge %d", i)
		}
	}
	sa, sb := one.Stats(), split.Stats()
	if sa.Attempted != sb.Attempted || sa.Accepted != sb.Accepted {
		t.Fatalf("stats diverge: %+v vs %+v", sa, sb)
	}
}

func TestDirectedSamplerRoundTimesPopulated(t *testing.T) {
	// The directed runner now flows through the unified kernel, so the
	// first-round/later-rounds split (previously undirected-only)
	// reaches the public Stats for directed targets too.
	dg, err := FromInOutDegrees([]int{2, 2, 1, 1, 2}, []int{1, 2, 2, 2, 1})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSampler(dg, WithAlgorithm(ParGlobalES), WithWorkers(2), WithSeed(6))
	if err != nil {
		t.Fatal(err)
	}
	stats, err := s.Step(8)
	if err != nil {
		t.Fatal(err)
	}
	if stats.AvgRounds < 1 {
		t.Fatalf("directed rounds instrumentation missing: %+v", stats)
	}
}

// edgeListHash is FNV-1a over an edge list in order, so it pins both
// the edge set and the order the chain writes it back in.
func edgeListHash(edges [][2]uint32) uint64 {
	h := uint64(14695981039346656037)
	for _, e := range edges {
		for _, x := range e {
			for b := 0; b < 4; b++ {
				h ^= uint64(byte(x >> (8 * b)))
				h *= 1099511628211
			}
		}
	}
	return h
}

// TestSamplerGoldenStreams pins the edge lists the chains emit after 8
// supersteps at a fixed seed (16 for the connected ParGlobalES row, see
// below). The target is power-law, so Curveball trades meet hubs and
// shared neighbours on almost every superstep. The values were recorded
// from the edge-set Curveball kernel and the allocating rng.Perm; any
// change to the trade kernel or the permutation draws must keep them.
// The sequential ES-MC cases and the connectivity-constrained cases pin
// the sequential chains' switch draws, executor and escape draws; the
// constrained targets are paths, on which the pinned supersteps reach
// at least one escape move. The ParGlobalES rows pin each edge kind's
// permutation salt and the physically shuffled superstep stream, and
// the ParES row its switch draws, which equal SeqES's. The connected
// ParGlobalES stream first escapes in its 14th superstep at this seed,
// so that row runs 16.
func TestSamplerGoldenStreams(t *testing.T) {
	g, err := GeneratePowerLaw(700, 2.2, 17)
	if err != nil {
		t.Fatal(err)
	}
	dg, err := FromInOutDegrees(g.Degrees(), g.Degrees())
	if err != nil {
		t.Fatal(err)
	}
	path, dipath, forbidden := escapePaths(t, 100)
	connected := []Option{WithConstraint(Connected())}
	cases := []struct {
		alg     Algorithm
		target  func() Target
		workers []int
		opts    []Option
		want    uint64
		steps   int
	}{
		{Curveball, func() Target { return g.Clone() }, []int{1, 2, 4}, nil, 0xa3a0074bccca7733, 8},
		{GlobalCurveball, func() Target { return g.Clone() }, []int{1, 2, 4}, nil, 0x54348606fb38a22f, 8},
		{SeqGlobalES, func() Target { return g.Clone() }, []int{1}, nil, 0x5a30533fef5ba847, 8},
		{SeqGlobalES, func() Target { return dg.Clone() }, []int{1}, nil, 0x422bafd6dc7ce92d, 8},
		{SeqES, func() Target { return g.Clone() }, []int{1}, nil, 0xc0f67ee6ec114f87, 8},
		{SeqES, func() Target { return dg.Clone() }, []int{1}, nil, 0x851ecfec31cb4965, 8},
		{SeqGlobalES, func() Target { return dipath.Clone() }, []int{1}, connected, 0xcea55b194a591426, 8},
		{SeqES, func() Target { return path.Clone() }, []int{1},
			[]Option{WithConstraint(Connected(), ForbiddenEdges(forbidden))}, 0xfebb0dfadbeeb206, 8},
		{ParGlobalES, func() Target { return g.Clone() }, []int{1, 2, 4}, nil, 0x4c618aee8b192e17, 8},
		{ParGlobalES, func() Target { return dg.Clone() }, []int{1, 2, 4}, nil, 0xb93c8f0565b3df39, 8},
		{ParES, func() Target { return g.Clone() }, []int{1, 2}, nil, 0xc0f67ee6ec114f87, 8},
		{ParGlobalES, func() Target { return dipath.Clone() }, []int{1, 2, 4}, connected, 0xad7a68a082cde186, 16},
	}
	for _, tc := range cases {
		for _, w := range tc.workers {
			target := tc.target()
			opts := append([]Option{WithAlgorithm(tc.alg), WithWorkers(w), WithSeed(2024)}, tc.opts...)
			s, err := NewSampler(target, opts...)
			if err != nil {
				t.Fatal(err)
			}
			st, err := s.Step(tc.steps)
			if err != nil {
				t.Fatal(err)
			}
			s.Close()
			if tc.opts != nil && st.EscapeMoves == 0 {
				t.Errorf("%v %T constrained: no escape move within the pinned supersteps", tc.alg, target)
			}
			var got uint64
			switch tt := target.(type) {
			case *Graph:
				got = edgeListHash(tt.Edges())
			case *DiGraph:
				got = edgeListHash(tt.Arcs())
			}
			if got != tc.want {
				t.Errorf("%v %T w=%d: edge-list hash %#x, want %#x", tc.alg, target, w, got, tc.want)
			}
		}
	}
}

// escapePaths returns an undirected and a directed path on n nodes,
// plus the forbidden edges that make single connectivity-preserving
// switches of the undirected path rare enough for the sequential
// constrained chain to stall. A directed path needs no help: every
// single head exchange splits it into a path and a cycle. On the
// undirected path a switch of (i, i+1) and (j, j+1) either reverses
// the segment between them, adding {i, j} and {i+1, j+1}, or cuts it
// off as a cycle, adding {i, j+1} and {i+1, j}. The two are equally
// likely, so the default stall limit is practically never reached.
// Forbidding every non-adjacent pair whose node sum is not 2 mod 3
// vetoes every reversal on the initial path (its two node sums differ
// by 2) while a third of the cuts stay allowed.
func escapePaths(t *testing.T, n int) (*Graph, *DiGraph, [][2]uint32) {
	t.Helper()
	var edges, forbidden [][2]uint32
	for v := 0; v+1 < n; v++ {
		edges = append(edges, [2]uint32{uint32(v), uint32(v + 1)})
	}
	for u := 0; u < n; u++ {
		for v := u + 2; v < n; v++ {
			if (u+v)%3 != 2 {
				forbidden = append(forbidden, [2]uint32{uint32(u), uint32(v)})
			}
		}
	}
	g, err := NewGraph(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	dg, err := NewDiGraph(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g, dg, forbidden
}
