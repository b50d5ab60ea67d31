package main

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"gesmc/internal/conc"
	"gesmc/internal/core"
	"gesmc/internal/gen"
	"gesmc/internal/graph"
	"gesmc/internal/rng"
)

// runChain builds the engine on g itself and advances it, so g holds
// the final state.
func runChain(t *testing.T, g *graph.Graph, build builder, supersteps int, cfg core.Config) *core.RunStats {
	t.Helper()
	e, err := build(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	stats, err := e.Steps(context.Background(), supersteps)
	if err != nil {
		t.Fatal(err)
	}
	return &stats
}

// edgeListHash is FNV-1a over the 64-bit edge encodings in list order,
// so it pins both the edge set and the positions the chain wrote.
func edgeListHash(edges []graph.Edge) uint64 {
	h := uint64(14695981039346656037)
	for _, e := range edges {
		for b := 0; b < 8; b++ {
			h ^= uint64(byte(uint64(e) >> (8 * b)))
			h *= 1099511628211
		}
	}
	return h
}

// TestBaselineGoldens pins the final edge lists of the baselines after
// 12 supersteps at seed 5. The values were recorded from the baselines'
// earlier home inside internal/core (on conc.EdgeSet's lock byte and
// ticket API); the plug-ins here must reproduce them exactly.
// NaiveParES runs at one worker, where it is deterministic; the
// power-law case rebuilds its table several times. The adjacency-list
// baselines equal SeqES on both targets.
func TestBaselineGoldens(t *testing.T) {
	pld, err := gen.SynPldGraph(1<<10, 2.1, rng.NewMT19937(21))
	if err != nil {
		t.Fatal(err)
	}
	gnp := gen.GNP(300, 0.05, rng.NewMT19937(22))
	cases := []struct {
		target *graph.Graph
		chain  chain
		legal  int64
		hash   uint64
	}{
		{pld, chain{"NaiveParES", naiveParES}, 6318, 0x9e7c43e8a1fcf7e7},
		{pld, chain{"AdjListES", adjListES}, 6219, 0xbba73d84a7ca138b},
		{pld, chain{"AdjSortES", adjSortES}, 6219, 0xbba73d84a7ca138b},
		{gnp, chain{"NaiveParES", naiveParES}, 12257, 0x5a2c96d50fd94b53},
		{gnp, chain{"AdjListES", adjListES}, 12228, 0xc650555c34e331f7},
		{gnp, chain{"AdjSortES", adjSortES}, 12228, 0xc650555c34e331f7},
	}
	for _, tc := range cases {
		// One call and three increments must both land on the golden.
		for _, split := range [][]int{{12}, {1, 4, 7}} {
			g := tc.target.Clone()
			e, err := tc.chain.build(g, core.Config{Seed: 5, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			var legal int64
			for _, k := range split {
				d, err := e.Steps(context.Background(), k)
				if err != nil {
					t.Fatal(err)
				}
				legal += d.Legal
			}
			e.Close()
			if got := edgeListHash(g.Edges()); got != tc.hash || legal != tc.legal {
				t.Errorf("%s m=%d steps %v: legal %d hash %#x, want %d %#x",
					tc.chain.name, g.M(), split, legal, got, tc.legal, tc.hash)
			}
		}
	}
}

func TestAdjBaselinesMatchSeqESExactly(t *testing.T) {
	// SeqES, AdjListES and AdjSortES consume randomness identically and
	// implement the identical chain, so for one seed all three must
	// produce bit-identical edge lists.
	src := rng.NewMT19937(14)
	base := gen.GNP(100, 0.1, src)
	ref := base.Clone()
	if _, err := core.Run(ref, core.AlgSeqES, 5, core.Config{Seed: 31}); err != nil {
		t.Fatal(err)
	}
	for _, c := range []chain{{"AdjListES", adjListES}, {"AdjSortES", adjSortES}} {
		g := base.Clone()
		runChain(t, g, c.build, 5, core.Config{Seed: 31})
		for i := range ref.Edges() {
			if g.Edges()[i] != ref.Edges()[i] {
				t.Fatalf("%v diverges from SeqES at edge %d", c.name, i)
			}
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

// With a single worker there are no races and every ticket acquisition
// succeeds, so NaiveParES degenerates to exact ES-MC (with different
// randomness but the same chain) — its stationary distribution must be
// uniform too.
func TestNaiveParESUniformSingleWorker(t *testing.T) {
	const runs, supersteps, threshold = 3000, 20, 60
	base, err := graph.FromPairs(6, [][2]graph.Node{{0, 1}, {2, 3}, {4, 5}})
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for r := 0; r < runs; r++ {
		g := base.Clone()
		runChain(t, g, naiveParES, supersteps, core.Config{Workers: 1, Seed: uint64(r)*2654435761 + 17, LoopProb: 0.05})
		counts[matchingKey(g)]++
	}
	if len(counts) != 15 {
		t.Fatalf("NaiveParES reached %d of 15 states", len(counts))
	}
	expected := float64(runs) / 15
	var x2 float64
	for _, c := range counts {
		d := float64(c) - expected
		x2 += d * d / expected
	}
	if x2 > threshold {
		t.Fatalf("NaiveParES chi-square over states = %.1f (threshold %.1f, df=14)", x2, float64(threshold))
	}
}

// Under real concurrency NaiveParES is inexact but must still preserve
// the hard invariants under stress: degrees, simplicity, and the
// consistency between the edge array and the concurrent set.
func TestNaiveParESStress(t *testing.T) {
	src := rng.NewMT19937(909)
	for _, build := range []func() *graph.Graph{
		func() *graph.Graph { g, _ := gen.SynPldGraph(512, 2.05, src); return g },
		func() *graph.Graph { return gen.GNP(256, 0.1, src) },
		func() *graph.Graph { g, _ := gen.Regular(256, 6); return g },
	} {
		g := build()
		if g == nil {
			t.Fatal("workload generation failed")
		}
		want := g.Degrees()
		stats := runChain(t, g, naiveParES, 8, core.Config{Workers: 8, Seed: 1})
		if err := g.CheckSimple(); err != nil {
			t.Fatal(err)
		}
		for v, d := range g.Degrees() {
			if d != want[v] {
				t.Fatalf("degree of %d changed", v)
			}
		}
		if stats.Legal == 0 {
			t.Fatal("nothing accepted under contention")
		}
	}
}

// The worker cap: owner ids must fit the 8-bit lock byte.
func TestNaiveParESManyWorkers(t *testing.T) {
	src := rng.NewMT19937(910)
	g := gen.GNP(128, 0.2, src)
	runChain(t, g, naiveParES, 2, core.Config{Workers: 1000, Seed: 2})
	if err := g.CheckSimple(); err != nil {
		t.Fatal(err)
	}
}

// Acceptance-rate comparison: on the same graph, NaiveParES under
// contention must accept at most as many switches as exact sequential
// ES-MC accepts on average (conflicts only ever add rejections).
func TestNaiveParESRejectsMoreThanExact(t *testing.T) {
	src := rng.NewMT19937(911)
	g := gen.GNP(128, 0.15, src)

	exact, err := core.Run(g.Clone(), core.AlgSeqES, 10, core.Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	naive := runChain(t, g.Clone(), naiveParES, 10, core.Config{Workers: 8, Seed: 3})
	exactRate := float64(exact.Legal) / float64(exact.Attempted)
	naiveRate := float64(naive.Legal) / float64(naive.Attempted)
	if naiveRate > exactRate*1.05 {
		t.Fatalf("naive acceptance %.3f implausibly above exact %.3f", naiveRate, exactRate)
	}
}

// TestEngineNaiveWriteBack: NaiveParES buffers edges privately; the
// graph must hold the current state after every Steps increment.
func TestEngineNaiveWriteBack(t *testing.T) {
	g := gen.GNP(256, 0.08, rng.NewMT19937(8))
	deg := g.Degrees()
	e, err := naiveParES(g, core.Config{Seed: 2, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for i := 0; i < 3; i++ {
		if _, err := e.Steps(context.Background(), 1); err != nil {
			t.Fatal(err)
		}
		if err := g.CheckSimple(); err != nil {
			t.Fatalf("increment %d: %v", i, err)
		}
		for v, d := range g.Degrees() {
			if d != deg[v] {
				t.Fatalf("increment %d changed degree of %d", i, v)
			}
		}
	}
}

func edge(u, v uint32) graph.Edge { return graph.MakeEdge(u, v) }

// lockedWith returns a table of the given capacity holding edges,
// unlocked.
func lockedWith(capacity int, edges ...graph.Edge) *lockedSet {
	s := newLockedSet(capacity)
	p := conc.NewPool(1)
	defer p.Close()
	s.rebuild(p, edges)
	return s
}

func TestTryLockSemantics(t *testing.T) {
	e := edge(1, 2)
	if lockedWith(16).TryLock(e, 0) {
		t.Fatal("locked an absent edge")
	}
	s := lockedWith(16, e)
	if !s.TryLock(e, 0) {
		t.Fatal("failed to lock unlocked edge")
	}
	if s.TryLock(e, 1) {
		t.Fatal("double lock")
	}
	if !s.Contains(e) {
		t.Fatal("locked edge invisible to Contains")
	}
	s.Unlock(e, 0)
	if !s.TryLock(e, 1) {
		t.Fatal("failed to relock after unlock")
	}
	s.EraseLocked(e, 1)
	if s.Contains(e) {
		t.Fatal("erased edge still present")
	}
}

func TestTryInsertLock(t *testing.T) {
	s := lockedWith(16)
	e := edge(7, 9)
	if !s.TryInsertLock(e, 3) {
		t.Fatal("insert-lock of fresh edge failed")
	}
	if s.TryInsertLock(e, 4) {
		t.Fatal("insert-lock of existing edge succeeded")
	}
	if s.TryLock(e, 4) {
		t.Fatal("insert-locked edge lockable by another owner")
	}
	s.Unlock(e, 3)
	if !s.TryLock(e, 4) {
		t.Fatal("unlock after insert-lock broken")
	}
}

func TestConcurrentLockMutualExclusion(t *testing.T) {
	// Many goroutines fight over a handful of edges; at most one may
	// hold each lock at a time, checked with an owner shadow array.
	const nEdges = 8
	const workers = 8
	const iters = 5000
	var edges []graph.Edge
	for i := uint32(0); i < nEdges; i++ {
		edges = append(edges, edge(i, i+100))
	}
	s := lockedWith(64, edges...)
	var holders [nEdges]atomic.Int32
	var violations atomic.Int32
	conc.Run(workers, func(w int) {
		state := uint64(w)*2654435761 + 1
		for it := 0; it < iters; it++ {
			state = state*6364136223846793005 + 1442695040888963407
			i := uint32(state>>33) % nEdges
			e := edge(i, i+100)
			if s.TryLock(e, uint8(w)) {
				if !holders[i].CompareAndSwap(0, int32(w+1)) {
					violations.Add(1)
				}
				if !holders[i].CompareAndSwap(int32(w+1), 0) {
					violations.Add(1)
				}
				s.Unlock(e, uint8(w))
			}
		}
	})
	if v := violations.Load(); v != 0 {
		t.Fatalf("%d mutual-exclusion violations", v)
	}
}

func TestConcurrentTryInsertLockUniqueWinner(t *testing.T) {
	// Racing inserters of the same edge: exactly one must win per round.
	const workers = 8
	const rounds = 2000
	s := lockedWith(1 << 12)
	p := conc.NewPool(2)
	defer p.Close()
	tombstones := 0
	for r := 0; r < rounds; r++ {
		e := edge(uint32(r), uint32(r)+1<<20)
		var winners atomic.Int32
		winner := atomic.Int32{}
		winner.Store(-1)
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func(w int) {
				defer wg.Done()
				if s.TryInsertLock(e, uint8(w)) {
					winners.Add(1)
					winner.Store(int32(w))
				}
			}(w)
		}
		wg.Wait()
		if got := winners.Load(); got != 1 {
			t.Fatalf("round %d: %d winners, want exactly 1", r, got)
		}
		s.EraseLocked(e, uint8(winner.Load()))
		if tombstones++; tombstones*4 > len(s.buckets) {
			s.rebuild(p, nil)
			tombstones = 0
		}
	}
}

// Misuse of the ticket API panics rather than corrupting the table.
func expectPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	fn()
}

func TestUnlockAbsentPanics(t *testing.T) {
	s := lockedWith(8)
	expectPanic(t, "Unlock of absent edge", func() {
		s.Unlock(edge(1, 2), 0)
	})
}

func TestEraseLockedAbsentPanics(t *testing.T) {
	s := lockedWith(8)
	expectPanic(t, "EraseLocked of absent edge", func() {
		s.EraseLocked(edge(1, 2), 0)
	})
}

// BenchmarkTable4Baselines times the baseline columns of Table 4 the
// way the root package's BenchmarkTable4 times the served chains: 20
// supersteps on the same 2^14-node power-law workload.
func BenchmarkTable4Baselines(b *testing.B) {
	pld, err := gen.SynPldGraph(1<<14, 2.1, rng.NewMT19937(12345))
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name    string
		build   builder
		workers int
	}{
		{"AdjListES", adjListES, 1},
		{"AdjSortES", adjSortES, 1},
		{"NaiveParES/P1", naiveParES, 1},
		{"NaiveParES/P4", naiveParES, 4},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := timeRun(pld, bc.build, 20, core.Config{Seed: 1, Workers: bc.workers}); err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(int64(pld.M()) * 8 * 20)
		})
	}
}
