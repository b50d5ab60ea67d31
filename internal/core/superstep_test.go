package core

import (
	"math"
	"testing"

	"gesmc/internal/gen"
	"gesmc/internal/graph"
	"gesmc/internal/hashset"
	"gesmc/internal/rng"
	"gesmc/internal/switching"
)

// runSequentialReference executes switches on a clone of g per
// Definition 1 and returns the resulting edge list and accepted count.
func runSequentialReference(g *graph.Graph, switches []Switch) ([]graph.Edge, int64) {
	c := g.Clone()
	S := hashset.FromEdges(c.Edges(), 0.5)
	legal := switching.ExecuteSequential(c.Edges(), S, switches)
	return c.Edges(), legal
}

// runParallelSuperstep executes switches on a clone of g via the
// SuperstepRunner and returns edge list, accepted count, and the runner
// (for edge-set inspection).
func runParallelSuperstep(g *graph.Graph, switches []Switch, workers int) ([]graph.Edge, int64, *SuperstepRunner) {
	c := g.Clone()
	r := NewSuperstepRunner(c.Edges(), max(len(switches), 1), workers)
	r.Run(switches)
	return c.Edges(), r.Legal, r
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// assertExactMatch verifies bit-exact equivalence of the parallel
// superstep against the sequential reference, including the edge set.
func assertExactMatch(t *testing.T, g *graph.Graph, switches []Switch, workers int) {
	t.Helper()
	seqE, seqLegal := runSequentialReference(g, switches)
	parE, parLegal, r := runParallelSuperstep(g, switches, workers)
	if seqLegal != parLegal {
		t.Fatalf("accepted count: sequential %d, parallel %d (workers=%d)", seqLegal, parLegal, workers)
	}
	for i := range seqE {
		if seqE[i] != parE[i] {
			t.Fatalf("edge list diverges at %d: sequential %v, parallel %v (workers=%d)",
				i, seqE[i], parE[i], workers)
		}
	}
	// The edge set must mirror the edge list.
	if r.Set.Len() != len(parE) {
		t.Fatalf("edge set size %d, edge list %d", r.Set.Len(), len(parE))
	}
	for _, e := range parE {
		if !r.Set.Contains(e) {
			t.Fatalf("edge set missing %v", e)
		}
	}
}

// globalSwitchBatch draws a random source-independent batch: a prefix of
// a permutation pairing (exactly the switches of a global switch).
func globalSwitchBatch(m int, src rng.Source) []Switch {
	perm := rng.Perm(src, m)
	l := rng.IntN(src, m/2+1)
	return switching.GlobalSwitches(perm, l, nil)
}

func TestSuperstepMatchesSequentialGNP(t *testing.T) {
	src := rng.NewMT19937(1001)
	for trial := 0; trial < 40; trial++ {
		n := 10 + rng.IntN(src, 40)
		g := gen.GNP(n, 0.2, src)
		if g.M() < 4 {
			continue
		}
		switches := globalSwitchBatch(g.M(), src)
		for _, w := range []int{1, 2, 4, 8} {
			assertExactMatch(t, g, switches, w)
		}
	}
}

func TestSuperstepMatchesSequentialPowerLaw(t *testing.T) {
	// Heavy-tailed graphs maximize target collisions, exercising the
	// delay/round machinery.
	src := rng.NewMT19937(2002)
	for trial := 0; trial < 15; trial++ {
		g, err := gen.SynPldGraph(128, 2.01, src)
		if err != nil {
			t.Fatal(err)
		}
		switches := globalSwitchBatch(g.M(), src)
		for _, w := range []int{1, 3, 7} {
			assertExactMatch(t, g, switches, w)
		}
	}
}

func TestSuperstepMatchesSequentialDense(t *testing.T) {
	// Dense graphs reject most switches via the existence check.
	src := rng.NewMT19937(3003)
	g := gen.GNP(24, 0.8, src)
	for trial := 0; trial < 20; trial++ {
		switches := globalSwitchBatch(g.M(), src)
		assertExactMatch(t, g, switches, 4)
	}
}

func TestSuperstepEraseDependencyScenario(t *testing.T) {
	// σ0 erases {0,2}; σ1 re-inserts it. Sequentially both are legal;
	// the superstep must agree and net the edge present.
	g, err := graph.FromPairs(8, [][2]graph.Node{{0, 1}, {2, 3}, {0, 2}, {4, 5}})
	if err != nil {
		t.Fatal(err)
	}
	switches := []Switch{
		{I: 2, J: 3, G: false}, // ({0,2},{4,5}) -> {0,4},{2,5}
		{I: 0, J: 1, G: false}, // ({0,1},{2,3}) -> {0,2},{1,3}
	}
	for _, w := range []int{1, 2, 4} {
		assertExactMatch(t, g, switches, w)
	}
	parE, legal, _ := runParallelSuperstep(g, switches, 4)
	if legal != 2 {
		t.Fatalf("expected both switches legal, got %d", legal)
	}
	want := map[graph.Edge]bool{
		graph.MakeEdge(0, 4): true, graph.MakeEdge(2, 5): true,
		graph.MakeEdge(0, 2): true, graph.MakeEdge(1, 3): true,
	}
	for _, e := range parE {
		if !want[e] {
			t.Fatalf("unexpected edge %v", e)
		}
	}
}

func TestSuperstepReversedEraseDependencyIsIllegal(t *testing.T) {
	// Same switches in the opposite order: now σ0 targets {0,2} which
	// is only erased by the LATER σ1, so σ0 must be illegal (k < p).
	g, err := graph.FromPairs(8, [][2]graph.Node{{0, 1}, {2, 3}, {0, 2}, {4, 5}})
	if err != nil {
		t.Fatal(err)
	}
	switches := []Switch{
		{I: 0, J: 1, G: false}, // targets {0,2} (exists until σ1) and {1,3}
		{I: 2, J: 3, G: false}, // erases {0,2}
	}
	for _, w := range []int{1, 2, 4} {
		assertExactMatch(t, g, switches, w)
	}
	_, legal, _ := runParallelSuperstep(g, switches, 2)
	if legal != 1 {
		t.Fatalf("expected exactly the eraser legal, got %d", legal)
	}
}

func TestSuperstepInsertDependencyScenario(t *testing.T) {
	// Two switches race to insert {1,3}; only the first may win.
	g, err := graph.FromPairs(8, [][2]graph.Node{{0, 1}, {2, 3}, {1, 6}, {3, 7}})
	if err != nil {
		t.Fatal(err)
	}
	switches := []Switch{
		{I: 0, J: 1, G: false}, // ({0,1},{2,3}) -> {0,2},{1,3}
		{I: 2, J: 3, G: false}, // ({1,6},{3,7}) -> {1,3},{6,7}
	}
	for _, w := range []int{1, 2, 4} {
		assertExactMatch(t, g, switches, w)
	}
	_, legal, _ := runParallelSuperstep(g, switches, 2)
	if legal != 1 {
		t.Fatalf("expected exactly one inserter legal, got %d", legal)
	}
}

func TestSuperstepSharedNodeCasesRejected(t *testing.T) {
	// Switches over edges sharing a node either loop or reproduce their
	// own sources; Definition 1 rejects both, and the graph must be
	// unchanged in either representation.
	g, err := graph.FromPairs(6, [][2]graph.Node{{0, 1}, {0, 2}, {3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	for _, gbit := range []bool{false, true} {
		switches := []Switch{{I: 0, J: 1, G: gbit}}
		assertExactMatch(t, g, switches, 2)
		parE, legal, _ := runParallelSuperstep(g, switches, 2)
		if legal != 0 {
			t.Fatalf("shared-node switch g=%v accepted", gbit)
		}
		for i, e := range g.Edges() {
			if parE[i] != e {
				t.Fatalf("graph changed by rejected switch")
			}
		}
	}
}

func TestSuperstepEmptyBatch(t *testing.T) {
	g := gen.GNP(10, 0.3, rng.NewMT19937(7))
	_, legal, r := runParallelSuperstep(g, nil, 4)
	if legal != 0 || r.InternalSupersteps != 0 {
		t.Fatal("empty batch had effects")
	}
}

func TestSuperstepManyConsecutive(t *testing.T) {
	// Chained supersteps against chained sequential execution: state
	// must track bit-exactly across superstep boundaries (exercises the
	// edge-set update).
	src := rng.NewMT19937(4004)
	g := gen.GNP(60, 0.15, src)
	m := g.M()

	seq := g.Clone()
	S := hashset.FromEdges(seq.Edges(), 0.5)
	par := g.Clone()
	r := NewSuperstepRunner(par.Edges(), m/2, 4)

	for step := 0; step < 30; step++ {
		perm := rng.Perm(src, m)
		l := rng.IntN(src, m/2+1)
		switches := switching.GlobalSwitches(perm, l, nil)
		switching.ExecuteSequential(seq.Edges(), S, switches)
		r.Run(switches)
		for i := range seq.Edges() {
			if seq.Edges()[i] != par.Edges()[i] {
				t.Fatalf("step %d: divergence at edge %d", step, i)
			}
		}
	}
	if err := par.CheckSimple(); err != nil {
		t.Fatal(err)
	}
}

func TestFindCollisionFreePrefixBruteForce(t *testing.T) {
	src := rng.NewMT19937(5005)
	const m = 20
	f := newPrefixFinder(m)
	f.epoch = math.MaxUint32 - 100
	for trial := 0; trial < 200; trial++ {
		r := 1 + rng.IntN(src, 40)
		switches := SampleSwitches(m, r, src)
		// Brute force: first k whose indices intersect any earlier switch.
		want := len(switches)
		used := map[uint32]bool{}
	outer:
		for k, sw := range switches {
			if used[sw.I] || used[sw.J] {
				want = k
				break outer
			}
			used[sw.I] = true
			used[sw.J] = true
		}
		if got := FindCollisionFreePrefix(switches, m); got != want {
			t.Fatalf("prefix = %d, want %d (switches=%v)", got, want, switches)
		}
		// One finder across all trials: stamps of earlier searches must
		// not count, also after the epoch wraps around (trial 100).
		if got := f.find(switches); got != want {
			t.Fatalf("reused finder: prefix = %d, want %d (epoch %d, switches=%v)", got, want, f.epoch, switches)
		}
	}
}

func TestRegularGraphRoundsBounded(t *testing.T) {
	// Corollary 2: on regular graphs the expected rounds per global
	// switch is at most ~4 even under worst-case scheduling; our
	// scheduler typically needs 1-3. Assert a generous bound.
	g, err := gen.Regular(512, 8)
	if err != nil {
		t.Fatal(err)
	}
	src := rng.NewMT19937(6006)
	r := NewSuperstepRunner(g.Edges(), g.M()/2, 4)
	for step := 0; step < 10; step++ {
		perm := rng.Perm(src, g.M())
		r.Run(switching.GlobalSwitches(perm, g.M()/2, nil))
	}
	if avg := float64(r.TotalRounds) / float64(r.InternalSupersteps); avg > 6 {
		t.Fatalf("average rounds %.1f exceeds bound for regular graph", avg)
	}
}
