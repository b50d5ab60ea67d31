package switching_test

import (
	"testing"

	"gesmc/internal/conc"
	"gesmc/internal/digraph"
	"gesmc/internal/gen"
	"gesmc/internal/graph"
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

// TestRunnerSetCountsAcrossCompactions runs 50 ParGlobalES supersteps
// at several worker counts, long enough to cross the compaction
// threshold repeatedly, and checks after each one that the edge set's
// summed per-worker counters still say m live edges, that a full scan
// agrees, and that every edge of the list is in the set.
func TestRunnerSetCountsAcrossCompactions(t *testing.T) {
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
		compactions := 0
		for i, sw := range steps {
			before := r.Set.Tombstones()
			r.Run(sw)
			if r.Set.Tombstones() < before {
				compactions++
			}
			if r.Set.Len() != m {
				t.Fatalf("workers=%d superstep %d: Set.Len() = %d, want %d", w, i, r.Set.Len(), m)
			}
			live := 0
			r.Set.ForEach(func(graph.Edge) { live++ })
			if live != m {
				t.Fatalf("workers=%d superstep %d: scan finds %d live edges, want %d", w, i, live, m)
			}
			for _, e := range E {
				if !r.Set.Contains(e) {
					t.Fatalf("workers=%d superstep %d: edge %v missing from the set", w, i, e)
				}
			}
		}
		r.Release()
		t.Logf("workers=%d: %d compactions", w, compactions)
		if compactions < 3 {
			t.Fatalf("workers=%d: %d compactions in %d supersteps, want several", w, compactions, len(steps))
		}
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
		d.Run(n,
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
