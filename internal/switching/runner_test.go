package switching_test

import (
	"testing"

	"gesmc/internal/conc"
	"gesmc/internal/digraph"
	"gesmc/internal/gen"
	"gesmc/internal/graph"
	"gesmc/internal/hashset"
	"gesmc/internal/rng"
	"gesmc/internal/switching"
)

// seqUndirected executes switches per Definition 1 on a copy of E with
// a map-backed set: the sequential reference for the undirected
// instantiation, independent of the production hash set.
func seqUndirected(E []graph.Edge, switches []switching.Switch) ([]graph.Edge, int64) {
	out := append([]graph.Edge(nil), E...)
	set := make(map[graph.Edge]struct{}, len(out))
	for _, e := range out {
		set[e] = struct{}{}
	}
	var legal int64
	for _, sw := range switches {
		e1, e2 := out[sw.I], out[sw.J]
		t3, t4 := graph.SwitchTargets(e1, e2, sw.G)
		if t3.IsLoop() || t4.IsLoop() {
			continue
		}
		if _, ok := set[t3]; ok {
			continue
		}
		if _, ok := set[t4]; ok {
			continue
		}
		delete(set, e1)
		delete(set, e2)
		set[t3] = struct{}{}
		set[t4] = struct{}{}
		out[sw.I], out[sw.J] = t3, t4
		legal++
	}
	return out, legal
}

// seqDirected is the directed analogue over arcs.
func seqDirected(A []digraph.Arc, switches []switching.Switch) ([]digraph.Arc, int64) {
	out := append([]digraph.Arc(nil), A...)
	set := make(map[digraph.Arc]struct{}, len(out))
	for _, a := range out {
		set[a] = struct{}{}
	}
	var legal int64
	for _, sw := range switches {
		a1, a2 := out[sw.I], out[sw.J]
		t1, t2 := digraph.SwitchTargets(a1, a2)
		if t1.IsLoop() || t2.IsLoop() {
			continue
		}
		if _, ok := set[t1]; ok {
			continue
		}
		if _, ok := set[t2]; ok {
			continue
		}
		delete(set, a1)
		delete(set, a2)
		set[t1] = struct{}{}
		set[t2] = struct{}{}
		out[sw.I], out[sw.J] = t1, t2
		legal++
	}
	return out, legal
}

func globalBatch(m int, src rng.Source) []switching.Switch {
	perm := rng.Perm(src, m)
	l := rng.IntN(src, m/2+1)
	out := make([]switching.Switch, 0, l)
	for k := 0; k < l; k++ {
		i, j := perm[2*k], perm[2*k+1]
		out = append(out, switching.Switch{I: i, J: j, G: i < j})
	}
	return out
}

func randomArcs(n int, p float64, src rng.Source) []digraph.Arc {
	var arcs []digraph.Arc
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u != v && rng.Float64(src) < p {
				arcs = append(arcs, digraph.MakeArc(graph.Node(u), graph.Node(v)))
			}
		}
	}
	return arcs
}

func TestRunnerUndirectedMatchesSequential(t *testing.T) {
	src := rng.NewMT19937(9001)
	for trial := 0; trial < 25; trial++ {
		g := gen.GNP(12+rng.IntN(src, 40), 0.2, src)
		if g.M() < 4 {
			continue
		}
		switches := globalBatch(g.M(), src)
		wantE, wantLegal := seqUndirected(g.Edges(), switches)
		for _, w := range []int{1, 2, 4, 8} {
			E := append([]graph.Edge(nil), g.Edges()...)
			r := switching.NewRunner(E, maxi(len(switches), 1), w)
			r.Run(switches)
			if r.Legal != wantLegal {
				t.Fatalf("workers=%d: accepted %d, sequential %d", w, r.Legal, wantLegal)
			}
			for i := range wantE {
				if E[i] != wantE[i] {
					t.Fatalf("workers=%d: edge list diverges at %d", w, i)
				}
			}
			if r.Set.Len() != len(E) {
				t.Fatalf("workers=%d: edge set size %d, want %d", w, r.Set.Len(), len(E))
			}
		}
	}
}

func TestRunnerDirectedMatchesSequential(t *testing.T) {
	src := rng.NewMT19937(9002)
	for trial := 0; trial < 25; trial++ {
		arcs := randomArcs(10+rng.IntN(src, 30), 0.2, src)
		if len(arcs) < 4 {
			continue
		}
		switches := globalBatch(len(arcs), src)
		wantA, wantLegal := seqDirected(arcs, switches)
		for _, w := range []int{1, 2, 4, 8} {
			A := append([]digraph.Arc(nil), arcs...)
			r := switching.NewRunner(A, maxi(len(switches), 1), w)
			r.Run(switches)
			if r.Legal != wantLegal {
				t.Fatalf("workers=%d: accepted %d, sequential %d", w, r.Legal, wantLegal)
			}
			for i := range wantA {
				if A[i] != wantA[i] {
					t.Fatalf("workers=%d: arc list diverges at %d", w, i)
				}
			}
		}
	}
}

// drawSwitches draws k switches over edges, every third one between two
// edges that share an endpoint in the state the switch will see: the
// list is built against ref's running result. It returns the switches
// and how many of them target exactly their own sources.
func drawSwitches[E switching.EdgeKind[E]](edges []E, k int, src rng.Source,
	ref func([]E, []switching.Switch) ([]E, int64)) ([]switching.Switch, int) {
	cur := append([]E(nil), edges...)
	m := len(cur)
	var out []switching.Switch
	own := 0
	for len(out) < k {
		i, j := rng.TwoDistinct(src, m)
		if len(out)%3 == 0 {
			j = -1
			u, v := uint32(uint64(cur[i])>>32), uint32(cur[i])
			for off := 1; off < m; off++ {
				c := (i + off) % m
				x, y := uint32(uint64(cur[c])>>32), uint32(cur[c])
				if x == u || x == v || y == u || y == v {
					j = c
					break
				}
			}
			if j < 0 {
				continue
			}
		}
		sw := switching.Switch{I: uint32(i), J: uint32(j), G: rng.Bool(src)}
		t3, t4 := cur[i].Targets(cur[j], sw.G)
		if (t3 == cur[i] && t4 == cur[j]) || (t3 == cur[j] && t4 == cur[i]) {
			own++
		}
		out = append(out, sw)
		cur, _ = ref(cur, []switching.Switch{sw})
	}
	return out, own
}

// checkExecutor runs the hash-set executor on a copy of edges and
// compares its accepted count and edge list with ref's.
func checkExecutor[E switching.EdgeKind[E]](t *testing.T, kind string, edges []E, switches []switching.Switch,
	ref func([]E, []switching.Switch) ([]E, int64)) {
	t.Helper()
	want, wantLegal := ref(edges, switches)
	got := append([]E(nil), edges...)
	S := hashset.FromEdges(got, 0.5)
	if legal := switching.ExecuteSequential(got, S, switches); legal != wantLegal {
		t.Fatalf("%s: accepted %d, map reference %d", kind, legal, wantLegal)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: edge list diverges at %d", kind, i)
		}
	}
	if S.Len() != len(got) {
		t.Fatalf("%s: set holds %d edges, want %d", kind, S.Len(), len(got))
	}
	for _, e := range got {
		if !S.Contains(graph.Edge(e)) {
			t.Fatalf("%s: edge %#x missing from the set", kind, uint64(e))
		}
	}
}

// TestExecuteSequentialMatchesMapReference checks the one sequential
// executor, over the hash set, against the independent map-backed
// references for both edge kinds, on switch lists that include
// shared-endpoint switches — some of them targeting their own sources.
func TestExecuteSequentialMatchesMapReference(t *testing.T) {
	src := rng.NewMT19937(9005)
	ownU, ownD := 0, 0
	for trial := 0; trial < 30; trial++ {
		n := 8 + rng.IntN(src, 24)
		g := gen.GNP(n, 0.3, src)
		if g.M() >= 4 {
			sws, own := drawSwitches(g.Edges(), 3*g.M(), src, seqUndirected)
			ownU += own
			checkExecutor(t, "undirected", g.Edges(), sws, seqUndirected)
		}
		arcs := randomArcs(n, 0.3, src)
		if len(arcs) >= 4 {
			sws, own := drawSwitches(arcs, 3*len(arcs), src, seqDirected)
			ownD += own
			checkExecutor(t, "directed", arcs, sws, seqDirected)
		}
	}
	if ownU == 0 || ownD == 0 {
		t.Fatalf("own-target switches drawn: %d undirected, %d directed; want both > 0", ownU, ownD)
	}
	t.Logf("own-target switches: %d undirected, %d directed", ownU, ownD)
}

// TestRunnerSetCountsAcrossSupersteps runs 50 ParGlobalES supersteps
// at several worker counts and checks after each one that the edge set
// still holds m edges and that every edge of the list is in it.
func TestRunnerSetCountsAcrossSupersteps(t *testing.T) {
	src := rng.NewMT19937(9004)
	g, err := gen.SynPldGraph(1<<11, 2.2, src)
	if err != nil {
		t.Fatal(err)
	}
	m := g.M()
	steps := make([][]switching.Switch, 50)
	for i := range steps {
		steps[i] = globalSwitchStep(m, src)
	}
	for _, w := range []int{1, 2, 4} {
		E := append([]graph.Edge(nil), g.Edges()...)
		r := switching.NewRunner(E, m/2, w)
		r.EnsureSet()
		for i, sw := range steps {
			r.Run(sw)
			if r.Set.Len() != m {
				t.Fatalf("workers=%d superstep %d: Set.Len() = %d, want %d", w, i, r.Set.Len(), m)
			}
			for _, e := range E {
				if !r.Set.Contains(e) {
					t.Fatalf("workers=%d superstep %d: edge %v missing from the set", w, i, e)
				}
			}
		}
		r.Release()
	}
}

func TestRunnerPessimisticParity(t *testing.T) {
	// The worst-case scheduler may only change round counts, never the
	// decided lists — for both instantiations.
	src := rng.NewMT19937(9003)
	g, err := gen.SynPldGraph(128, 2.05, src)
	if err != nil {
		t.Fatal(err)
	}
	switches := globalBatch(g.M(), src)

	nat := append([]graph.Edge(nil), g.Edges()...)
	rn := switching.NewRunner(nat, maxi(len(switches), 1), 4)
	rn.Run(switches)

	pes := append([]graph.Edge(nil), g.Edges()...)
	rp := switching.NewRunner(pes, maxi(len(switches), 1), 4)
	rp.Pessimistic = true
	rp.Run(switches)

	if rn.Legal != rp.Legal {
		t.Fatalf("pessimistic accepted %d, natural %d", rp.Legal, rn.Legal)
	}
	for i := range nat {
		if nat[i] != pes[i] {
			t.Fatalf("pessimistic mode diverges at edge %d", i)
		}
	}
	if rp.TotalRounds < rn.TotalRounds {
		t.Fatalf("pessimistic rounds %d < natural %d", rp.TotalRounds, rn.TotalRounds)
	}
}

// TestRoundDriverChain drives the bare round loop with a synthetic
// dependency chain: item k delays until item k-1 publishes. Under the
// natural scheduler with one worker the chain resolves in one round
// (statuses publish immediately, items are visited in order); under the
// pessimistic scheduler every link costs a round barrier, so n items
// need exactly n rounds.
func TestRoundDriverChain(t *testing.T) {
	const n = 17
	run := func(pessimistic bool) *switching.RoundDriver {
		var d switching.RoundDriver
		d.Init(1)
		d.Pessimistic = pessimistic
		status := make([]uint32, n)
		d.Run(nil, n,
			func(_ int, k int32) uint32 {
				if k == 0 || status[k-1] != conc.StatusUndecided {
					return conc.StatusLegal
				}
				return conc.StatusUndecided
			},
			func(k int32, st uint32) { status[k] = st },
		)
		return &d
	}
	nat := run(false)
	if nat.Legal != n || nat.TotalRounds != 1 {
		t.Fatalf("natural: legal=%d rounds=%d, want %d/1", nat.Legal, nat.TotalRounds, n)
	}
	pes := run(true)
	if pes.Legal != n || pes.TotalRounds != n {
		t.Fatalf("pessimistic: legal=%d rounds=%d, want %d/%d", pes.Legal, pes.TotalRounds, n, n)
	}
	if pes.MaxRounds != n || pes.InternalSupersteps != 1 {
		t.Fatalf("pessimistic stats broken: %+v", pes.Stats)
	}
}

func TestStatsSub(t *testing.T) {
	a := switching.Stats{InternalSupersteps: 5, TotalRounds: 9, MaxRounds: 3, Legal: 100}
	b := switching.Stats{InternalSupersteps: 7, TotalRounds: 12, MaxRounds: 4, Legal: 160}
	d := b.Sub(a)
	if d.InternalSupersteps != 2 || d.TotalRounds != 3 || d.Legal != 60 {
		t.Fatalf("bad delta: %+v", d)
	}
	if d.MaxRounds != 4 {
		t.Fatalf("MaxRounds must carry over cumulatively, got %d", d.MaxRounds)
	}
}

func maxi(a, b int) int {
	if a > b {
		return a
	}
	return b
}
