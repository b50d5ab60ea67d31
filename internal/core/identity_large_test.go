package core

import (
	"testing"

	"gesmc/internal/gen"
	"gesmc/internal/graph"
	"gesmc/internal/hashset"
	"gesmc/internal/rng"
	"gesmc/internal/switching"
)

// TestParGlobalLargeWorkerIdentity asserts the bit-identity invariant
// at a size where the per-superstep permutation takes the parallel
// scatter path (m >= 2^12): the edge list after k supersteps must be
// byte-for-byte identical for every worker count.
// The small differential suites hold this invariant below the scatter
// cutoff; this test pins it where the permutation, the fused phase
// dispatches, and the dynamic chunking actually run multi-worker code
// paths. It would have caught any worker-count dependence in the
// permutation generator.
func TestParGlobalLargeWorkerIdentity(t *testing.T) {
	src := rng.NewMT19937(5150)
	base, err := gen.SynPldGraph(1<<12, 2.0, src)
	if err != nil {
		t.Fatal(err)
	}
	if base.M() < 1<<12 {
		t.Fatalf("graph below scatter cutoff: m=%d", base.M())
	}
	ref := base.Clone()
	if _, err := Run(ref, AlgParGlobalES, 3, Config{Workers: 1, Seed: 404}); err != nil {
		t.Fatal(err)
	}
	want := ref.Edges()
	for _, workers := range []int{2, 4, 8} {
		g := base.Clone()
		if _, err := Run(g, AlgParGlobalES, 3, Config{Workers: workers, Seed: 404}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		got := g.Edges()
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: edge list diverges from w=1 at index %d", workers, i)
			}
		}
	}
}

// TestParGlobalEngineMatchesShuffleReplay checks the production chain
// against its definition where the shuffle takes the scatter path: for
// every worker count, ParGlobalES must end on the edge list of an
// in-order sequential replay of the same supersteps — the list
// shuffled by the permutation its seed stream draws, then the adjacent
// pairs 0..ℓ−1 executed per Definition 1 with the direction bit
// 1_{E[2k] < E[2k+1]}. The target is hub-skewed, so many switches
// depend on each other.
func TestParGlobalEngineMatchesShuffleReplay(t *testing.T) {
	src := rng.NewMT19937(5151)
	base, err := gen.SynPldGraph(1<<13, 2.0, src)
	if err != nil {
		t.Fatal(err)
	}
	m := base.M()
	if m < 1<<12 {
		t.Fatalf("graph below scatter cutoff: m=%d", m)
	}
	const supersteps = 5
	const seed = 405
	want := base.Clone()
	S := hashset.FromEdges(want.Edges(), 0.5)
	lSrc := rng.NewMT19937(seed)
	seedSrc := rng.NewSplitMix64(seed ^ parGlobalSaltEdge)
	perm := rng.NewPermGen[graph.Edge](m)
	scratch := make([]graph.Edge, m)
	var legal int64
	for step := 0; step < supersteps; step++ {
		shuffleEdges(perm, seedSrc.Uint64(), want.Edges(), scratch)
		l := int(rng.BinomialComplementSmall(lSrc, int64(m/2), DefaultLoopProb))
		legal += switching.ExecuteSequential(want.Edges(), S, pairSwitches(want.Edges(), l))
	}
	for _, workers := range []int{1, 2, 4} {
		g := base.Clone()
		st, err := Run(g, AlgParGlobalES, supersteps, Config{Workers: workers, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if st.Legal != legal {
			t.Fatalf("workers=%d: accepted %d, replay %d", workers, st.Legal, legal)
		}
		for i, e := range want.Edges() {
			if g.Edges()[i] != e {
				t.Fatalf("workers=%d: edge list diverges from the replay at index %d", workers, i)
			}
		}
	}
}
