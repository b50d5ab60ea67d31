package digraph

import (
	"context"
	"testing"

	"gesmc/internal/core"
	"gesmc/internal/hashset"
	"gesmc/internal/rng"
	"gesmc/internal/switching"
)

// replayParGlobalSequentially reproduces the exact superstep stream the
// parallel directed G-ES-MC engine draws for a given seed at every
// worker count — the arc list shuffled physically by the permutation
// whose seed comes from the SplitMix64 stream, ℓ from the MT19937
// stream, switch k pairing slots 2k and 2k+1 — and executes it with
// the sequential executor every edge kind shares
// (switching.ExecuteSequential over the hash set, itself checked
// against an independent map-backed reference in the switching
// package). Directed switches ignore the direction bit. This is the
// ground truth the parallel engine must hit bit-identically.
func replayParGlobalSequentially(g *DiGraph, supersteps int, loopProb float64, seed uint64) *DiGraph {
	c := g.Clone()
	A := c.Arcs()
	S := hashset.FromEdges(c.Arcs(), 0.5)
	m := c.M()
	src := rng.NewMT19937(seed)
	seedSrc := rng.NewSplitMix64(seed ^ 0x5DEECE66D)
	perm := rng.NewPermGen[Arc](m)
	scratch := make([]Arc, m)
	for step := 0; step < supersteps; step++ {
		perm.Permute(seedSrc.Uint64(), A, scratch, nil)
		copy(A, scratch)
		l := int(rng.BinomialComplementSmall(src, int64(m/2), loopProb))
		pairs := make([]switching.Switch, l)
		for k := range pairs {
			pairs[k] = switching.Switch{I: uint32(2 * k), J: uint32(2*k + 1)}
		}
		switching.ExecuteSequential(A, S, pairs)
	}
	return c
}

func TestDirectedParGlobalBitIdenticalAcrossWorkers(t *testing.T) {
	// For every worker count, the parallel engine must reproduce the
	// sequential reference executing the same switch stream.
	src := rng.NewMT19937(8701)
	g := randomDigraph(72, 0.12, src)
	const supersteps = 8
	const pl = 0.01
	const seed = 42
	want := replayParGlobalSequentially(g, supersteps, pl, seed)
	for _, w := range []int{1, 2, 4, 8} {
		got := g.Clone()
		if _, err := runChain(got, core.AlgParGlobalES, supersteps, core.Config{Workers: w, LoopProb: pl, Seed: seed}); err != nil {
			t.Fatal(err)
		}
		for i := range want.Arcs() {
			if want.Arcs()[i] != got.Arcs()[i] {
				t.Fatalf("workers=%d: arc %d diverges from sequential replay", w, i)
			}
		}
	}
}

func TestDirectedEngineResumedSplitsBitIdentical(t *testing.T) {
	// Splitting the same superstep budget across Steps calls must not
	// change the trajectory.
	src := rng.NewMT19937(8702)
	g := randomDigraph(64, 0.12, src)
	cfg := core.Config{Workers: 4, Seed: 9, LoopProb: 0.01}

	oneShot := g.Clone()
	e1, err := newEngine(oneShot, core.AlgParGlobalES, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e1.Steps(context.Background(), 10); err != nil {
		t.Fatal(err)
	}

	split := g.Clone()
	e2, err := newEngine(split, core.AlgParGlobalES, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{1, 3, 0, 4, 2} {
		if _, err := e2.Steps(context.Background(), k); err != nil {
			t.Fatal(err)
		}
	}

	for i := range oneShot.Arcs() {
		if oneShot.Arcs()[i] != split.Arcs()[i] {
			t.Fatalf("resumed split diverges at arc %d", i)
		}
	}
	s1, s2 := e1.Stats(), e2.Stats()
	if s1.Legal != s2.Legal || s1.Attempted != s2.Attempted || s1.Supersteps != s2.Supersteps {
		t.Fatalf("stats diverge: one-shot %+v, split %+v", s1, s2)
	}
}

func TestDirectedParGlobalMatchesReplayAcrossLoopProbs(t *testing.T) {
	// The production engine's survivor path against the sequential
	// replay: one odd-m and one even-m target, loop probabilities that
	// leave from a handful to most edges unpaired as survivors, and
	// every worker count. An odd superstep count ends the run on the
	// stepper's spare list, so Finish must copy the arcs back.
	src := rng.NewMT19937(8703)
	g := randomDigraph(60, 0.1, src)
	trimmed := NewUnchecked(g.N(), append([]Arc(nil), g.Arcs()[:g.M()-1]...))
	const supersteps = 7
	const seed = 43
	for _, base := range []*DiGraph{g, trimmed} {
		for _, pl := range []float64{0.01, 0.5, 0.9} {
			want := replayParGlobalSequentially(base, supersteps, pl, seed)
			for _, w := range []int{1, 2, 4, 8} {
				got := base.Clone()
				if _, err := runChain(got, core.AlgParGlobalES, supersteps, core.Config{Workers: w, LoopProb: pl, Seed: seed}); err != nil {
					t.Fatal(err)
				}
				for i := range want.Arcs() {
					if want.Arcs()[i] != got.Arcs()[i] {
						t.Fatalf("m=%d P_L=%v workers=%d: arc %d diverges from sequential replay",
							base.M(), pl, w, i)
					}
				}
			}
		}
	}
}

func TestDirectedParESMatchesSeqES(t *testing.T) {
	// ParES draws SeqES's switch sequence and executes it in
	// collision-free prefixes, so over arcs as over edges the two chains
	// end on the same arc list at every worker count.
	src := rng.NewMT19937(8704)
	g := randomDigraph(80, 0.1, src)
	const supersteps = 6
	want := g.Clone()
	if _, err := runChain(want, core.AlgSeqES, supersteps, core.Config{Seed: 44}); err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{1, 2, 4} {
		got := g.Clone()
		if _, err := runChain(got, core.AlgParES, supersteps, core.Config{Workers: w, Seed: 44}); err != nil {
			t.Fatal(err)
		}
		for i := range want.Arcs() {
			if want.Arcs()[i] != got.Arcs()[i] {
				t.Fatalf("workers=%d: arc %d diverges from SeqES", w, i)
			}
		}
	}
}
