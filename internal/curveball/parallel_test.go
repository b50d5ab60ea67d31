package curveball

import (
	"math"
	"runtime"
	"slices"
	"sort"
	"testing"

	"gesmc/internal/gen"
	"gesmc/internal/graph"
	"gesmc/internal/rng"
)

func sortedEdges(es []graph.Edge) []graph.Edge {
	out := append([]graph.Edge(nil), es...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func engineEdges(e *Engine, m int) []graph.Edge {
	dst := make([]graph.Edge, m)
	e.WriteEdges(dst)
	return dst
}

// drawGlobalBatches replays the exact pairing and seed streams an
// engine with the given seed draws for `steps` global trades, so the
// sequential Reference can be driven with identical inputs. Each batch
// is the pairing permutation itself, as GlobalStep passes it.
func drawGlobalBatches(n int, steps int, seed uint64) ([][]uint32, []uint64) {
	src := rng.NewMT19937(seed)
	seedSrc := rng.NewSplitMix64(seed ^ 0xC3B5507A6F7C8E21)
	batches := make([][]uint32, steps)
	seeds := make([]uint64, steps)
	for s := 0; s < steps; s++ {
		batches[s] = rng.Perm(src, n)
		seeds[s] = seedSrc.Uint64()
	}
	return batches, seeds
}

func TestGlobalTradeBatchMatchesReferenceAcrossWorkers(t *testing.T) {
	src := rng.NewMT19937(7101)
	for trial := 0; trial < 8; trial++ {
		g := gen.GNP(40+rng.IntN(src, 60), 0.15, src)
		if g.M() < 4 {
			continue
		}
		const steps = 5
		seed := uint64(1000 + trial)
		batches, seeds := drawGlobalBatches(g.N(), steps, seed)

		ref := NewReference(g)
		for s := range batches {
			ref.TradeBatch(batches[s], seeds[s])
		}
		want := ref.Edges()

		for _, w := range []int{1, 2, 4, 8} {
			e := NewEngine(g, w, seed)
			for s := 0; s < steps; s++ {
				e.GlobalStep()
			}
			got := engineEdges(e, g.M())
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("workers=%d: edge %d diverges from sequential reference", w, i)
				}
			}
			if err := e.Graph().CheckSimple(); err != nil {
				t.Fatalf("workers=%d: %v", w, err)
			}
		}
	}
}

func TestLocalTradesMatchAcrossWorkers(t *testing.T) {
	src := rng.NewMT19937(7102)
	g := gen.GNP(80, 0.12, src)
	var want []graph.Edge
	for _, w := range []int{1, 2, 4, 8} {
		e := NewEngine(g, w, 77)
		for s := 0; s < 6; s++ {
			e.LocalStep()
		}
		got := engineEdges(e, g.M())
		if want == nil {
			want = got
			continue
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: local trades diverge at edge %d", w, i)
			}
		}
	}
}

func TestEngineResumedSplitsBitIdentical(t *testing.T) {
	src := rng.NewMT19937(7103)
	g := gen.GNP(64, 0.15, src)

	one := NewEngine(g, 4, 5)
	for s := 0; s < 8; s++ {
		one.GlobalStep()
	}
	// "Resumed" engine: same construction, steps split across bursts —
	// the stream state must carry over exactly.
	split := NewEngine(g, 4, 5)
	for _, k := range []int{3, 1, 4} {
		for s := 0; s < k; s++ {
			split.GlobalStep()
		}
	}
	a, b := engineEdges(one, g.M()), engineEdges(split, g.M())
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("split runs diverge at edge %d", i)
		}
	}
	if one.Stats().Legal != split.Stats().Legal {
		t.Fatal("counters diverge between split runs")
	}
}

func TestEnginePreservesInvariants(t *testing.T) {
	src := rng.NewMT19937(7104)
	g, err := gen.SynPldGraph(256, 2.2, src)
	if err != nil {
		t.Fatal(err)
	}
	wantDeg := g.Degrees()
	e := NewEngine(g, 4, 11)
	for s := 0; s < 12; s++ {
		if s%2 == 0 {
			e.GlobalStep()
		} else {
			e.LocalStep()
		}
	}
	h := e.Graph()
	if err := h.CheckSimple(); err != nil {
		t.Fatal(err)
	}
	gotDeg := h.Degrees()
	for v := range wantDeg {
		if gotDeg[v] != wantDeg[v] {
			t.Fatalf("degree of %d changed: %d -> %d", v, wantDeg[v], gotDeg[v])
		}
	}
	if graph.SameEdgeSet(g, h) {
		t.Fatal("trades did not randomize the graph")
	}
	st := e.Stats()
	if st.InternalSupersteps == 0 || st.Legal == 0 || st.TotalRounds < int64(st.InternalSupersteps) {
		t.Fatalf("kernel stats broken: %+v", st)
	}
}

func TestParallelGlobalCurveballUniformOverMatchings(t *testing.T) {
	// The 15-state enumeration used by the other chains: the superstep
	// trade semantics must also converge to uniform over the perfect
	// matchings of K6.
	base, err := graph.FromPairs(6, [][2]graph.Node{{0, 1}, {2, 3}, {4, 5}})
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	const runs = 3000
	for r := 0; r < runs; r++ {
		e := NewEngine(base, 2, uint64(r)*2654435761+13)
		for s := 0; s < 20; s++ {
			e.GlobalStep()
		}
		edges := sortedEdges(engineEdges(e, base.M()))
		key := ""
		for _, ed := range edges {
			key += ed.String()
		}
		counts[key]++
	}
	if len(counts) != 15 {
		t.Fatalf("reached %d of 15 states", len(counts))
	}
	expected := float64(runs) / 15
	var x2 float64
	for _, c := range counts {
		d := float64(c) - expected
		x2 += d * d / expected
	}
	if x2 > 60 { // df = 14
		t.Fatalf("chi-square %.1f too large", x2)
	}
}

// drawLocalBatches replays the pair and seed streams of `steps` local
// supersteps of an engine with the given seed, split into the same
// maximal node-disjoint batches as LocalStep.
func drawLocalBatches(n int, steps int, seed uint64) ([][]uint32, []uint64) {
	src := rng.NewMT19937(seed)
	seedSrc := rng.NewSplitMix64(seed ^ 0xC3B5507A6F7C8E21)
	var batches [][]uint32
	var seeds []uint64
	for s := 0; s < steps; s++ {
		pairs := make([][2]uint32, n/2)
		for i := range pairs {
			u, v := rng.TwoDistinct(src, n)
			pairs[i] = [2]uint32{uint32(u), uint32(v)}
		}
		for i := 0; i < len(pairs); {
			used := map[uint32]bool{}
			var batch []uint32
			j := i
			for j < len(pairs) && !used[pairs[j][0]] && !used[pairs[j][1]] {
				used[pairs[j][0]], used[pairs[j][1]] = true, true
				batch = append(batch, pairs[j][0], pairs[j][1])
				j++
			}
			batches = append(batches, batch)
			seeds = append(seeds, seedSrc.Uint64())
			i = j
		}
	}
	return batches, seeds
}

// hubGraph is a power-law graph plus two hubs: node n-1 adjacent to
// every other node and node n-2 to every even node, so a hub's degree
// exceeds every other node's and a trade between a hub and any node
// meets shared neighbours.
func hubGraph(t *testing.T, n int, seed uint64) *graph.Graph {
	t.Helper()
	pl, err := gen.SynPldGraph(n-2, 2.2, rng.NewMT19937(seed))
	if err != nil {
		t.Fatal(err)
	}
	var pairs [][2]graph.Node
	for _, e := range pl.Edges() {
		pairs = append(pairs, [2]graph.Node{e.U(), e.V()})
	}
	for x := 0; x < n-1; x++ {
		pairs = append(pairs, [2]graph.Node{graph.Node(x), graph.Node(n - 1)})
		if x%2 == 0 && x != n-2 {
			pairs = append(pairs, [2]graph.Node{graph.Node(x), graph.Node(n - 2)})
		}
	}
	g, err := graph.FromPairs(n, pairs)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestHubTradesMatchReferenceAcrossWorkers drives global and local
// supersteps on a hub-heavy target, where the hubs fill the largest
// shared-neighbour tables and most of their neighbours are shared, and
// checks the engine's edge list against the sequential Reference at
// every worker count.
func TestHubTradesMatchReferenceAcrossWorkers(t *testing.T) {
	g := hubGraph(t, 300, 7105)
	const steps = 6
	for _, global := range []bool{true, false} {
		const seed = 4242
		batches, seeds := drawGlobalBatches(g.N(), steps, seed)
		if !global {
			batches, seeds = drawLocalBatches(g.N(), steps, seed)
		}
		ref := NewReference(g)
		for s := range batches {
			ref.TradeBatch(batches[s], seeds[s])
		}
		want := ref.Edges()
		for _, w := range []int{1, 2, 4, 8} {
			e := NewEngine(g, w, seed)
			for s := 0; s < steps; s++ {
				if global {
					e.GlobalStep()
				} else {
					e.LocalStep()
				}
			}
			got := engineEdges(e, g.M())
			e.Close()
			if !slices.Equal(got, want) {
				t.Fatalf("global=%v workers=%d: edge list diverges from sequential reference", global, w)
			}
		}
		checkInvariants(t, g, graph.NewUnchecked(g.N(), want))
	}
}

// TestTradeStampWrap starts every worker's trade stamp just below the
// wrap and poisons every other table entry with the first stamp used
// after it: unless the wrap clears the table, the first lookup that
// lands on a poisoned entry indexes out of range. The result must
// still match Reference. Only a hub v with more than scanMax owned
// neighbours takes the table, a few trades per global step here, so
// the run is long enough for those trades to wrap the stamp and
// keep using the table after it.
func TestTradeStampWrap(t *testing.T) {
	g := hubGraph(t, 120, 7106)
	const steps, seed = 24, 99
	batches, seeds := drawGlobalBatches(g.N(), steps, seed)
	ref := NewReference(g)
	for s := range batches {
		ref.TradeBatch(batches[s], seeds[s])
	}
	for _, w := range []int{1, 2} {
		e := NewEngine(g, w, seed)
		for i := range e.sc {
			sc := &e.sc[i]
			sc.stamp = math.MaxUint32 - 5
			for h := 0; h < len(sc.tab); h += 2 {
				sc.tab[h] = 1<<32 | math.MaxUint32
			}
		}
		for s := 0; s < steps; s++ {
			e.GlobalStep()
		}
		wrapped := false
		for i := range e.sc {
			wrapped = wrapped || e.sc[i].stamp < math.MaxUint32-5
		}
		if !wrapped {
			t.Fatalf("workers=%d: no worker's stamp wrapped", w)
		}
		if got := engineEdges(e, g.M()); !slices.Equal(got, ref.Edges()) {
			t.Fatalf("workers=%d: edge list diverges from sequential reference across the stamp wrap", w)
		}
		e.Close()
	}
}

// TestEngineStepAllocFree: once warm, trades, both superstep kinds and
// the write-back allocate nothing.
func TestEngineStepAllocFree(t *testing.T) {
	g := hubGraph(t, 400, 7107)
	dst := make([]graph.Edge, g.M())
	for _, w := range []int{1, 2} {
		e := NewEngine(g, w, 3)
		e.GlobalStep()
		e.LocalStep()
		steps := map[string]func(){
			"GlobalStep": e.GlobalStep,
			"LocalStep":  e.LocalStep,
			"WriteEdges": func() { e.WriteEdges(dst) },
		}
		for name, fn := range steps {
			if a := testing.AllocsPerRun(5, fn); a != 0 {
				t.Errorf("workers=%d: %s allocates %.1f times per call", w, name, a)
			}
		}
		e.Close()
	}
}

// TestEngineFirstStepsAllocFree: a fresh engine's first supersteps
// allocate nothing either. At w = 2 a hub trade lands on whichever
// worker claims it, so per-worker trade buffers that grew on demand
// would still grow after any fixed number of warm-up steps; they are
// sized at construction instead. The count is taken as
// testing.AllocsPerRun takes it, without its warm-up call: at
// GOMAXPROCS 1 and rounded down per superstep, so that the runtime's
// own rare allocation of a channel waiter, when the gang's barrier
// parks a goroutine, does not count.
func TestEngineFirstStepsAllocFree(t *testing.T) {
	g := hubGraph(t, 400, 7107)
	dst := make([]graph.Edge, g.M())
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const steps = 8
	for range 5 {
		e := NewEngine(g, 2, 3)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range steps {
			e.GlobalStep()
			e.LocalStep()
			e.WriteEdges(dst)
		}
		runtime.ReadMemStats(&after)
		e.Close()
		if a := (after.Mallocs - before.Mallocs) / steps; a != 0 {
			t.Fatalf("a fresh workers=2 engine allocates %d times per superstep of each kind", a)
		}
	}
}

// TestTradeSharedNeighbourPaths hand-builds one batch whose last three
// trades (u, v) give v scanMax−1, scanMax and scanMax+1 owned
// neighbours, so the first two test shared neighbours by the scan and
// the third by the table. Each v also has earlier-ranked neighbours
// (paired in earlier trades of the batch, so their edges are fixed),
// and u shares a third of v's owned neighbours, has owned neighbours of
// its own and the same earlier-ranked ones. Degrees and the rank
// profile of every neighbourhood are invariant under the batch, so
// every repeat of it meets the same three owned counts; each repeat
// must match Reference at w = 1 and w = 2.
func TestTradeSharedNeighbourPaths(t *testing.T) {
	var pairs [][2]graph.Node
	var early, trades []uint32
	n := 0
	node := func() graph.Node { n++; return graph.Node(n - 1) }
	for _, c := range []int{scanMax - 1, scanMax, scanMax + 1} {
		u, v := node(), node()
		for x := 0; x < c; x++ {
			w := node()
			pairs = append(pairs, [2]graph.Node{v, w})
			if x%3 == 0 {
				pairs = append(pairs, [2]graph.Node{u, w})
			}
		}
		for x := 0; x < c/2; x++ {
			pairs = append(pairs, [2]graph.Node{u, node()})
		}
		for x := 0; x < 4; x++ {
			w := node()
			early = append(early, uint32(w))
			pairs = append(pairs, [2]graph.Node{v, w}, [2]graph.Node{u, w})
		}
		pairs = append(pairs, [2]graph.Node{u, v})
		trades = append(trades, uint32(u), uint32(v))
	}
	g, err := graph.FromPairs(n, pairs)
	if err != nil {
		t.Fatal(err)
	}
	batch := append(early, trades...)
	ref := NewReference(g)
	engines := []*Engine{NewEngine(g, 1, 1), NewEngine(g, 2, 1)}
	for rep := range 12 {
		for x, c := range []int{scanMax - 1, scanMax, scanMax + 1} {
			k := len(early)/2 + x
			v := batch[2*k+1]
			owned := 0
			for _, w := range ref.adj[v] {
				if w != batch[2*k] && !slices.Contains(early, w) {
					owned++
				}
			}
			if owned != c {
				t.Fatalf("repeat %d: v of trade %d has %d owned neighbours, want %d", rep, k, owned, c)
			}
		}
		seed := uint64(7108 + rep)
		ref.TradeBatch(batch, seed)
		want := ref.Edges()
		for _, e := range engines {
			e.TradeBatch(batch, seed)
			if got := engineEdges(e, g.M()); !slices.Equal(got, want) {
				t.Fatalf("repeat %d, workers=%d: edge list diverges from sequential reference", rep, e.drv.Workers())
			}
		}
	}
	checkInvariants(t, g, graph.NewUnchecked(n, ref.Edges()))
	if graph.SameEdgeSet(g, graph.NewUnchecked(n, ref.Edges())) {
		t.Fatal("the batch moved no edge")
	}
	for _, e := range engines {
		e.Close()
	}
}

// FuzzTradeBatch drives Engine.TradeBatch at w = 1 and w = 2 and the
// sequential Reference with the same batches on a small simple graph.
// The fuzz input gives the node count (2 to 64), the edges (byte
// pairs, loops and repeats dropped), the batch (empty: a seeded
// uniform pairing of every node; otherwise a node-disjoint list read
// from the bytes, an odd last node left unpaired) and the seed. Two
// batches run, so the second starts from a redealt state; the engines
// must match the reference edge for edge and keep every degree.
func FuzzTradeBatch(f *testing.F) {
	dense := make([]byte, 0, 40*39)
	for a := range 40 {
		for b := a + 1; b < 40; b++ {
			dense = append(dense, byte(a), byte(b))
		}
	}
	f.Add(uint8(8), []byte{0, 1, 1, 2, 2, 3, 3, 0, 4, 5, 5, 6, 6, 7, 0, 4}, []byte(nil), uint64(1))
	f.Add(uint8(8), []byte{0, 1, 1, 2, 2, 3, 3, 0, 4, 5, 5, 6, 6, 7, 0, 4}, []byte{3, 0, 5, 1, 2}, uint64(2))
	f.Add(uint8(62), dense, []byte(nil), uint64(3))
	f.Add(uint8(62), dense, []byte{0, 1, 39, 38, 2, 3}, uint64(4))
	f.Fuzz(func(t *testing.T, nb uint8, edgeBytes, batchBytes []byte, seed uint64) {
		n := 2 + int(nb)%63
		seen := map[graph.Edge]bool{}
		var edges []graph.Edge
		for i := 0; i+1 < len(edgeBytes); i += 2 {
			a, b := graph.Node(int(edgeBytes[i])%n), graph.Node(int(edgeBytes[i+1])%n)
			if e := graph.MakeEdge(a, b); a != b && !seen[e] {
				seen[e] = true
				edges = append(edges, e)
			}
		}
		g, err := graph.New(n, edges)
		if err != nil {
			t.Fatal(err)
		}
		var batch []uint32
		if len(batchBytes) == 0 {
			batch = rng.Perm(rng.NewMT19937(seed), n)
		} else {
			used := make([]bool, n)
			for _, x := range batchBytes {
				if u := int(x) % n; !used[u] {
					used[u] = true
					batch = append(batch, uint32(u))
				}
			}
		}
		ref := NewReference(g)
		engines := []*Engine{NewEngine(g, 1, seed), NewEngine(g, 2, seed)}
		defer func() {
			for _, e := range engines {
				e.Close()
			}
		}()
		for _, s := range []uint64{seed, seed ^ 0x9E3779B97F4A7C15} {
			ref.TradeBatch(batch, s)
			want := ref.Edges()
			for _, e := range engines {
				e.TradeBatch(batch, s)
				if got := engineEdges(e, g.M()); !slices.Equal(got, want) {
					t.Fatalf("workers=%d: edge list diverges from sequential reference", e.drv.Workers())
				}
			}
		}
		checkInvariants(t, g, graph.NewUnchecked(n, ref.Edges()))
	})
}
