package core

import (
	"sort"
	"testing"

	"gesmc/internal/gen"
	"gesmc/internal/graph"
	"gesmc/internal/hashset"
	"gesmc/internal/rng"
	"gesmc/internal/switching"
)

var allAlgorithms = []Algorithm{AlgSeqES, AlgSeqGlobalES, AlgParES, AlgParGlobalES}

func TestAllAlgorithmsPreserveInvariants(t *testing.T) {
	src := rng.NewMT19937(11)
	base, err := gen.SynPldGraph(256, 2.2, src)
	if err != nil {
		t.Fatal(err)
	}
	wantDeg := base.Degrees()
	for _, alg := range allAlgorithms {
		for _, workers := range []int{1, 4} {
			g := base.Clone()
			stats, err := Run(g, alg, 4, Config{Workers: workers, Seed: 99})
			if err != nil {
				t.Fatalf("%v workers=%d: %v", alg, workers, err)
			}
			if err := g.CheckSimple(); err != nil {
				t.Fatalf("%v workers=%d broke simplicity: %v", alg, workers, err)
			}
			gotDeg := g.Degrees()
			for v := range wantDeg {
				if gotDeg[v] != wantDeg[v] {
					t.Fatalf("%v workers=%d changed degree of node %d: %d -> %d",
						alg, workers, v, wantDeg[v], gotDeg[v])
				}
			}
			if stats.Legal > stats.Attempted {
				t.Fatalf("%v: legal %d > attempted %d", alg, stats.Legal, stats.Attempted)
			}
			if stats.Legal == 0 {
				t.Fatalf("%v accepted nothing: suspicious", alg)
			}
		}
	}
}

func TestAllAlgorithmsActuallyRandomize(t *testing.T) {
	src := rng.NewMT19937(12)
	base := gen.GNP(128, 0.08, src)
	for _, alg := range allAlgorithms {
		g := base.Clone()
		if _, err := Run(g, alg, 6, Config{Workers: 2, Seed: 5}); err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if graph.SameEdgeSet(base, g) {
			t.Fatalf("%v left the graph unchanged", alg)
		}
	}
}

func TestRunDeterministicPerSeed(t *testing.T) {
	src := rng.NewMT19937(13)
	base := gen.GNP(64, 0.2, src)
	for _, alg := range []Algorithm{AlgSeqES, AlgSeqGlobalES, AlgParES, AlgParGlobalES} {
		a := base.Clone()
		b := base.Clone()
		if _, err := Run(a, alg, 3, Config{Workers: 4, Seed: 77}); err != nil {
			t.Fatal(err)
		}
		if _, err := Run(b, alg, 3, Config{Workers: 4, Seed: 77}); err != nil {
			t.Fatal(err)
		}
		for i := range a.Edges() {
			if a.Edges()[i] != b.Edges()[i] {
				t.Fatalf("%v not deterministic for fixed seed (edge %d)", alg, i)
			}
		}
	}
}

func TestGlobalParallelMatchesGlobalSequential(t *testing.T) {
	// Inject identical (π, ℓ) into both implementations: bit-exact
	// equality required, across superstep boundaries. The parallel side
	// runs the production survivor path twice: on a set-less global
	// runner (what ParGlobalES compiles) and on a set-backed one (what
	// the connectivity constraint compiles), whose edge set must track
	// the edge list. One target has an odd edge count, so ℓ = ⌊m/2⌋
	// leaves one survivor; the large loop probabilities leave many.
	src := rng.NewMT19937(17)
	g, err := gen.SynPldGraph(200, 2.1, src)
	if err != nil {
		t.Fatal(err)
	}
	trimmed := graph.NewUnchecked(g.N(), append([]graph.Edge(nil), g.Edges()[:g.M()-1]...))
	for _, base := range []*graph.Graph{g, trimmed} {
		m := base.M()
		for _, pl := range []float64{0.01, 0.5, 0.9} {
			for _, w := range []int{1, 2, 4, 8} {
				seq := base.Clone()
				seqSet := hashset.FromEdges(seq.Edges(), 0.5)
				bare := base.Clone()
				rBare := NewSuperstepRunner(bare.Edges(), m/2, w)
				backed := base.Clone()
				rBacked := NewSuperstepRunner(backed.Edges(), m/2, w)
				rBacked.EnsureSet()
				stepSrc := rng.NewMT19937(uint64(m) ^ uint64(w))
				var legal int64
				var buf []Switch
				perm := make([]uint32, m)
				for step := 0; step < 12; step++ {
					rng.PermInto(stepSrc, perm)
					l := int(rng.BinomialComplementSmall(stepSrc, int64(m/2), pl))
					buf = switching.GlobalSwitches(perm, l, buf)
					legal += switching.ExecuteSequential(seq.Edges(), seqSet, buf)
					buf = ExecuteGlobalParallel(rBare, perm, l, buf)
					buf = ExecuteGlobalParallel(rBacked, perm, l, buf)
					for i := range seq.Edges() {
						if seq.Edges()[i] != bare.Edges()[i] || seq.Edges()[i] != backed.Edges()[i] {
							t.Fatalf("m=%d P_L=%v workers=%d step %d: divergence at edge %d", m, pl, w, step, i)
						}
					}
				}
				if rBare.Stats.Legal != legal || rBacked.Stats.Legal != legal {
					t.Fatalf("m=%d P_L=%v workers=%d: legal %d (set-less) / %d (set-backed), sequential %d",
						m, pl, w, rBare.Stats.Legal, rBacked.Stats.Legal, legal)
				}
				if rBare.Set != nil {
					t.Fatal("global runner built an edge set")
				}
				if rBacked.Set.Len() != m {
					t.Fatalf("m=%d P_L=%v workers=%d: edge set holds %d edges", m, pl, w, rBacked.Set.Len())
				}
				for _, e := range backed.Edges() {
					if !rBacked.Set.Contains(e) {
						t.Fatalf("m=%d P_L=%v workers=%d: edge set lost %v", m, pl, w, e)
					}
				}
				rBare.Release()
				rBacked.Release()
			}
		}
	}
}

func TestParESMatchesSequentialReplay(t *testing.T) {
	// The full ParES pipeline (prefix detection + supersteps) over a
	// pre-sampled sequence must equal in-order Definition-1 execution.
	src := rng.NewMT19937(18)
	g := gen.GNP(50, 0.2, src)
	m := g.M()
	switches := SampleSwitches(m, 8*m, src)

	seqE, _ := runSequentialReference(g, switches)

	par := g.Clone()
	runner := NewSuperstepRunner(par.Edges(), m/2+1, 4)
	pending := switches
	for len(pending) > 0 {
		tlen := FindCollisionFreePrefix(pending, m)
		runner.Run(pending[:tlen])
		pending = pending[tlen:]
	}
	for i := range seqE {
		if par.Edges()[i] != seqE[i] {
			t.Fatalf("ParES pipeline diverges from sequential replay at edge %d", i)
		}
	}
}

// enumeration-based uniformity: degree sequence (1,1,1,1,1,1) has
// exactly 15 states (perfect matchings of K6).
func matchingKey(g *graph.Graph) string {
	edges := append([]graph.Edge(nil), g.Edges()...)
	sort.Slice(edges, func(i, j int) bool { return edges[i] < edges[j] })
	key := make([]byte, 0, len(edges)*2)
	for _, e := range edges {
		key = append(key, byte(e.U()), byte(e.V()))
	}
	return string(key)
}

func testUniformOverMatchings(t *testing.T, alg Algorithm, workers, runs, supersteps int, threshold float64) {
	t.Helper()
	base, err := graph.FromPairs(6, [][2]graph.Node{{0, 1}, {2, 3}, {4, 5}})
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for r := 0; r < runs; r++ {
		g := base.Clone()
		if _, err := Run(g, alg, supersteps, Config{Workers: workers, Seed: uint64(r)*2654435761 + 17, LoopProb: 0.05}); err != nil {
			t.Fatal(err)
		}
		counts[matchingKey(g)]++
	}
	if len(counts) != 15 {
		t.Fatalf("%v reached %d of 15 states", alg, len(counts))
	}
	expected := float64(runs) / 15
	var x2 float64
	for _, c := range counts {
		d := float64(c) - expected
		x2 += d * d / expected
	}
	if x2 > threshold {
		t.Fatalf("%v chi-square over states = %.1f (threshold %.1f, df=14)", alg, x2, threshold)
	}
}

func TestUniformitySeqES(t *testing.T) {
	testUniformOverMatchings(t, AlgSeqES, 1, 3000, 20, 60)
}

func TestUniformitySeqGlobalES(t *testing.T) {
	// Theorem 1: G-ES-MC converges to the uniform distribution.
	testUniformOverMatchings(t, AlgSeqGlobalES, 1, 3000, 30, 60)
}

func TestUniformityParES(t *testing.T) {
	testUniformOverMatchings(t, AlgParES, 2, 2000, 20, 60)
}

func TestUniformityParGlobalES(t *testing.T) {
	testUniformOverMatchings(t, AlgParGlobalES, 2, 2000, 30, 60)
}

func TestRunRejectsTinyGraph(t *testing.T) {
	g, err := graph.FromPairs(2, [][2]graph.Node{{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range allAlgorithms {
		if _, err := Run(g.Clone(), alg, 1, Config{}); err == nil {
			t.Fatalf("%v accepted a 1-edge graph", alg)
		}
	}
}

func TestStatsAccounting(t *testing.T) {
	src := rng.NewMT19937(20)
	g := gen.GNP(64, 0.2, src)
	stats, err := Run(g, AlgParGlobalES, 7, Config{Workers: 3, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Supersteps != 7 || stats.InternalSupersteps != 7 {
		t.Fatalf("superstep accounting: %d / %d", stats.Supersteps, stats.InternalSupersteps)
	}
	if stats.TotalRounds < int64(stats.InternalSupersteps) {
		t.Fatal("fewer rounds than supersteps")
	}
	if stats.MaxRounds < 1 || stats.AvgRounds() < 1 {
		t.Fatal("round stats empty")
	}
	if stats.Duration <= 0 {
		t.Fatal("duration not measured")
	}
	if stats.RejectionRate() < 0 || stats.RejectionRate() > 1 {
		t.Fatalf("rejection rate %v out of range", stats.RejectionRate())
	}
}
