package core

import (
	"math"
	"testing"

	"gesmc/internal/gen"
	"gesmc/internal/graph"
	"gesmc/internal/rng"
)

// hoeffding1e6 is the deviation t of a sum of n fair coins from n/2
// that Hoeffding's inequality, P(|X − n/2| ≥ t) ≤ 2·exp(−2t²/n), puts
// at probability 10⁻⁶.
func hoeffding1e6(n int) float64 {
	return math.Sqrt(float64(n) * math.Log(2e6) / 2)
}

// TestGlobalDirectionBitFair checks the direction bit of ParGlobalES,
// g_k = 1_{E[2k] < E[2k+1]} on the shuffled edge list. The order inside
// a pair is a fair coin independent of the pairing, so g is too.
//
// On two disjoint edges {0,1} and {2,3} a superstep has one switch and
// exactly two legal outcomes, {0,2},{1,3} for g = 0 and {0,3},{1,2} for
// g = 1; over many seeds each must come up within the binomial 10⁻⁶
// bound. The tiny target takes the Fisher–Yates path of the shuffle,
// so the fraction of g = 1 among one superstep's switches is also
// counted on a target above the scatter cutoff, over several seeds.
func TestGlobalDirectionBitFair(t *testing.T) {
	const seeds = 4000
	base, err := graph.FromPairs(4, [][2]graph.Node{{0, 1}, {2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	outcome := map[graph.Edge]int{} // keyed by the target edge at node 0
	for s := 0; s < seeds; s++ {
		g := base.Clone()
		if _, err := Run(g, AlgParGlobalES, 1, Config{Seed: uint64(s)}); err != nil {
			t.Fatal(err)
		}
		for _, e := range g.Edges() {
			if e.U() == 0 {
				outcome[e]++
			}
		}
	}
	bound := hoeffding1e6(seeds)
	for _, e := range []graph.Edge{graph.MakeEdge(0, 2), graph.MakeEdge(0, 3)} {
		if d := math.Abs(float64(outcome[e]) - seeds/2); d > bound {
			t.Errorf("outcome with edge %v: %d of %d seeds, more than %.0f from half", e, outcome[e], seeds, bound)
		}
	}
	if len(outcome) != 2 || outcome[graph.MakeEdge(0, 2)]+outcome[graph.MakeEdge(0, 3)] != seeds {
		t.Fatalf("outcomes %v, want exactly the two legal switches", outcome)
	}

	// The scatter path: g over the pairs of one shuffled list.
	big, err := gen.SynPldGraph(1<<13, 2.2, rng.NewMT19937(77))
	if err != nil {
		t.Fatal(err)
	}
	m := big.M()
	if m < 1<<12 {
		t.Fatalf("target below the scatter cutoff: m=%d", m)
	}
	perm := rng.NewPermGen[graph.Edge](m)
	shuffled := make([]graph.Edge, m)
	pairs := m / 2
	for s := uint64(0); s < 8; s++ {
		perm.Permute(s, big.Edges(), shuffled, nil)
		ones := 0
		for k := 0; k < pairs; k++ {
			if shuffled[2*k] < shuffled[2*k+1] {
				ones++
			}
		}
		if d := math.Abs(float64(ones) - float64(pairs)/2); d > hoeffding1e6(pairs) {
			t.Errorf("seed %d: g = 1 for %d of %d switches, more than %.0f from half", s, ones, pairs, hoeffding1e6(pairs))
		}
	}
}
