package core

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"gesmc/internal/gen"
	"gesmc/internal/graph"
	"gesmc/internal/rng"
	"gesmc/internal/switching"
)

// quickGraph is a generator for testing/quick: a random simple graph
// with at least 4 edges.
type quickGraph struct {
	G    *graph.Graph
	Seed uint64
}

// Generate implements quick.Generator.
func (quickGraph) Generate(r *rand.Rand, size int) reflect.Value {
	src := rng.NewSplitMix64(r.Uint64())
	for {
		n := 8 + rng.IntN(src, 60)
		p := 0.05 + 0.4*rng.Float64(src)
		g := gen.GNP(n, p, src)
		if g.M() >= 4 {
			return reflect.ValueOf(quickGraph{G: g, Seed: src.Uint64()})
		}
	}
}

// TestQuickSuperstepEquivalence is the property-based form of the
// differential test: for random graphs and random source-independent
// batches, parallel == sequential, bit-exact.
func TestQuickSuperstepEquivalence(t *testing.T) {
	property := func(qg quickGraph, workers8 uint8) bool {
		workers := int(workers8%8) + 1
		src := rng.NewSplitMix64(qg.Seed)
		switches := globalSwitchBatch(qg.G.M(), src)
		seqE, seqLegal := runSequentialReference(qg.G, switches)
		parE, parLegal, _ := runParallelSuperstep(qg.G, switches, workers)
		if seqLegal != parLegal {
			return false
		}
		for i := range seqE {
			if seqE[i] != parE[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickDegreeAndSimplicityInvariant: any algorithm on any random
// graph preserves degrees and simplicity.
func TestQuickDegreeAndSimplicityInvariant(t *testing.T) {
	property := func(qg quickGraph, algPick uint8, workers8 uint8) bool {
		alg := allAlgorithms[int(algPick)%len(allAlgorithms)]
		workers := int(workers8%4) + 1
		g := qg.G.Clone()
		want := g.Degrees()
		if _, err := Run(g, alg, 2, Config{Workers: workers, Seed: qg.Seed}); err != nil {
			return false
		}
		if g.CheckSimple() != nil {
			return false
		}
		got := g.Degrees()
		for v := range want {
			if got[v] != want[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickGlobalSwitchesWellFormed: the switch sequence of any global
// switch touches each index at most once and derives direction bits
// from the permutation order.
func TestQuickGlobalSwitchesWellFormed(t *testing.T) {
	property := func(seed uint64, mRaw uint16, lRaw uint16) bool {
		m := int(mRaw%2000) + 2
		src := rng.NewSplitMix64(seed)
		perm := rng.Perm(src, m)
		l := int(lRaw) % (m/2 + 1)
		switches := switching.GlobalSwitches(perm, l, nil)
		if len(switches) != l {
			return false
		}
		seen := map[uint32]bool{}
		for _, sw := range switches {
			if sw.I == sw.J || seen[sw.I] || seen[sw.J] {
				return false
			}
			seen[sw.I] = true
			seen[sw.J] = true
			if sw.G != (sw.I < sw.J) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickSampleSwitchesWellFormed: sampled ES-MC switches use distinct
// in-range indices.
func TestQuickSampleSwitchesWellFormed(t *testing.T) {
	property := func(seed uint64, mRaw uint16, rRaw uint8) bool {
		m := int(mRaw%5000) + 2
		src := rng.NewSplitMix64(seed)
		switches := SampleSwitches(m, int(rRaw), src)
		for _, sw := range switches {
			if sw.I == sw.J || int(sw.I) >= m || int(sw.J) >= m {
				return false
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickPrefixNeverSplitsCollisionFree: the returned prefix is
// always collision-free and maximal.
func TestQuickPrefixNeverSplitsCollisionFree(t *testing.T) {
	property := func(seed uint64, mRaw uint8, rRaw uint8) bool {
		m := int(mRaw%60) + 4
		src := rng.NewSplitMix64(seed)
		switches := SampleSwitches(m, int(rRaw%100)+1, src)
		tlen := FindCollisionFreePrefix(switches, m)
		used := map[uint32]bool{}
		for k := 0; k < tlen; k++ {
			if used[switches[k].I] || used[switches[k].J] {
				return false // prefix not collision free
			}
			used[switches[k].I] = true
			used[switches[k].J] = true
		}
		if tlen < len(switches) {
			// Maximality: the next switch must collide.
			next := switches[tlen]
			if !used[next.I] && !used[next.J] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSuperstepDecide(b *testing.B) {
	// Microbenchmark of one full superstep on a mid-size power law.
	src := rng.NewMT19937(1)
	g, err := gen.SynPldGraph(1<<13, 2.1, src)
	if err != nil {
		b.Fatal(err)
	}
	m := g.M()
	r := NewSuperstepRunner(g.Edges(), m/2, 1)
	perm := rng.Perm(src, m)
	switches := switching.GlobalSwitches(perm, m/2, nil)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Run(switches)
	}
	b.SetBytes(int64(len(switches)) * 16)
}

func BenchmarkFindCollisionFreePrefix(b *testing.B) {
	src := rng.NewMT19937(2)
	const m = 1 << 16
	switches := SampleSwitches(m, 4*256, src)
	f := newPrefixFinder(m)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.find(switches)
	}
}
