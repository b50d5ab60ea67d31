package digraph

import (
	"context"
	"sort"
	"testing"

	"gesmc/internal/core"
	"gesmc/internal/graph"
	"gesmc/internal/hashset"
	"gesmc/internal/rng"
	"gesmc/internal/switching"
)

// randomDigraph samples a simple digraph by thinning the complete
// digraph.
func randomDigraph(n int, p float64, src rng.Source) *DiGraph {
	var arcs []Arc
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u != v && rng.Float64(src) < p {
				arcs = append(arcs, MakeArc(graph.Node(u), graph.Node(v)))
			}
		}
	}
	return NewUnchecked(n, arcs)
}

// newEngine compiles a chain over the digraph's arcs.
func newEngine(g *DiGraph, alg core.Algorithm, cfg core.Config) (*switching.Engine, error) {
	return core.Compile(g.N(), g.Arcs(), alg, cfg)
}

// runChain compiles a chain over the digraph's arcs and advances it
// the given supersteps.
func runChain(g *DiGraph, alg core.Algorithm, supersteps int, cfg core.Config) (switching.Stats, error) {
	e, err := newEngine(g, alg, cfg)
	if err != nil {
		return switching.Stats{}, err
	}
	defer e.Close()
	return e.Steps(context.Background(), supersteps)
}

func globalBatch(m int, src rng.Source) []switching.Switch {
	perm := rng.Perm(src, m)
	l := rng.IntN(src, m/2+1)
	return switching.GlobalSwitches(perm, l, nil)
}

func TestDirectedSuperstepMatchesSequential(t *testing.T) {
	src := rng.NewMT19937(101)
	for trial := 0; trial < 40; trial++ {
		g := randomDigraph(12+rng.IntN(src, 30), 0.2, src)
		if g.M() < 4 {
			continue
		}
		switches := globalBatch(g.M(), src)

		seq := g.Clone()
		S := hashset.FromEdges(seq.Arcs(), 0.5)
		seqLegal := switching.ExecuteSequential(seq.Arcs(), S, switches)

		for _, w := range []int{1, 2, 4} {
			par := g.Clone()
			r := switching.NewRunner(par.Arcs(), maxi(len(switches), 1), w)
			r.Run(switches)
			if r.Legal != seqLegal {
				t.Fatalf("workers=%d: accepted %d, sequential %d", w, r.Legal, seqLegal)
			}
			for i := range seq.Arcs() {
				if seq.Arcs()[i] != par.Arcs()[i] {
					t.Fatalf("workers=%d: divergence at arc %d", w, i)
				}
			}
		}
	}
}

func maxi(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func TestDirectedChainsPreserveInvariants(t *testing.T) {
	src := rng.NewMT19937(102)
	g := randomDigraph(64, 0.1, src)
	wantOut, wantIn := g.Degrees()

	check := func(name string, h *DiGraph) {
		t.Helper()
		if err := h.CheckSimple(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		gotOut, gotIn := h.Degrees()
		for v := range wantOut {
			if gotOut[v] != wantOut[v] || gotIn[v] != wantIn[v] {
				t.Fatalf("%s changed degrees of node %d", name, v)
			}
		}
	}

	seq := g.Clone()
	if _, err := runChain(seq, core.AlgSeqES, 5, core.Config{Seed: 3}); err != nil {
		t.Fatal(err)
	}
	check("SeqES", seq)

	sgl := g.Clone()
	if _, err := runChain(sgl, core.AlgSeqGlobalES, 5, core.Config{LoopProb: 0.01, Seed: 3}); err != nil {
		t.Fatal(err)
	}
	check("SeqGlobalES", sgl)

	par := g.Clone()
	stats, err := runChain(par, core.AlgParGlobalES, 5, core.Config{Workers: 4, LoopProb: 0.01, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	check("ParGlobalES", par)
	if stats.Legal == 0 || stats.Legal > stats.Attempted {
		t.Fatalf("stats broken: %+v", stats)
	}
	if SameArcSet(g, par) {
		t.Fatal("ParGlobalES did not randomize")
	}
}

// Uniformity over an enumerable directed state space: out = in =
// (1,1,1,1) on 4 nodes; the simple 1-regular digraphs are exactly the
// derangements of 4 elements (9 states). Directed switches reject often
// here (every shared-node pair loops), so the chain needs more
// supersteps than the undirected analogue to mix.
func TestDirectedUniformity(t *testing.T) {
	base, err := KleitmanWang([]int{1, 1, 1, 1}, []int{1, 1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	const runs = 4000
	for r := 0; r < runs; r++ {
		g := base.Clone()
		if _, err := runChain(g, core.AlgSeqGlobalES, 100, core.Config{LoopProb: 0.05, Seed: uint64(r)*2654435761 + 7}); err != nil {
			t.Fatal(err)
		}
		arcs := append([]Arc(nil), g.Arcs()...)
		sort.Slice(arcs, func(i, j int) bool { return arcs[i] < arcs[j] })
		key := ""
		for _, a := range arcs {
			key += a.String()
		}
		counts[key]++
	}
	// 1-regular simple digraphs on 4 labeled nodes = permutations of
	// {0..3} with no fixed point = derangements of 4 elements = 9.
	if len(counts) != 9 {
		t.Fatalf("reached %d states, want 9 derangements", len(counts))
	}
	expected := float64(runs) / 9
	var x2 float64
	for _, c := range counts {
		d := float64(c) - expected
		x2 += d * d / expected
	}
	if x2 > 40 { // df = 8, p < 1e-5
		t.Fatalf("chi-square %.1f too large", x2)
	}
}

func TestDirectedParallelMatchesSequentialEndToEnd(t *testing.T) {
	// With one worker and the same seed structure, ParGlobalES and a
	// manual sequential replay of the same (perm, l) stream agree.
	src := rng.NewMT19937(103)
	g := randomDigraph(40, 0.15, src)
	m := g.M()

	par := g.Clone()
	r := switching.NewRunner(par.Arcs(), m/2, 2)
	seq := g.Clone()
	S := hashset.FromEdges(seq.Arcs(), 0.5)
	var buf []switching.Switch
	for step := 0; step < 10; step++ {
		perm := rng.Perm(src, m)
		l := m / 2
		buf = switching.GlobalSwitches(perm, l, buf)
		switching.ExecuteSequential(seq.Arcs(), S, buf)
		r.Run(buf)
		for i := range seq.Arcs() {
			if seq.Arcs()[i] != par.Arcs()[i] {
				t.Fatalf("step %d: divergence at arc %d", step, i)
			}
		}
	}
}

func TestBipartite(t *testing.T) {
	g, err := NewBipartite(3, 2, [][2]graph.Node{{0, 0}, {1, 1}, {2, 0}})
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckBipartite(g, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := NewBipartite(2, 2, [][2]graph.Node{{2, 0}}); err == nil {
		t.Fatal("left overflow accepted")
	}
}

func TestBipartiteFromDegreesAndRandomize(t *testing.T) {
	leftDeg := []int{3, 2, 2, 1}
	rightDeg := []int{2, 2, 2, 1, 1}
	g, err := BipartiteFromDegrees(leftDeg, rightDeg)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckBipartite(g, len(leftDeg)); err != nil {
		t.Fatal(err)
	}
	// Randomizing preserves the bipartition (heads swap among right
	// nodes only).
	if _, err := runChain(g, core.AlgParGlobalES, 10, core.Config{Workers: 2, LoopProb: 0.01, Seed: 9}); err != nil {
		t.Fatal(err)
	}
	if err := CheckBipartite(g, len(leftDeg)); err != nil {
		t.Fatalf("switching broke the bipartition: %v", err)
	}
	out, in := g.Degrees()
	for v, d := range leftDeg {
		if out[v] != d {
			t.Fatalf("left degree changed at %d", v)
		}
	}
	for v, d := range rightDeg {
		if in[len(leftDeg)+v] != d {
			t.Fatalf("right degree changed at %d", v)
		}
	}
}

func TestBipartiteFromDegreesRejects(t *testing.T) {
	if _, err := BipartiteFromDegrees([]int{3}, []int{1, 1}); err == nil {
		t.Fatal("infeasible bipartite degrees accepted")
	}
}
