package digraph

import (
	"context"
	"testing"

	"gesmc/internal/core"
	"gesmc/internal/hashset"
	"gesmc/internal/rng"
	"gesmc/internal/switching"
)

// The directed mirror of core/pessimistic_test.go: the worst-case
// scheduler of Theorems 2-3 now reaches the directed runner through the
// unified kernel.

func TestDirectedPessimisticSameResults(t *testing.T) {
	src := rng.NewMT19937(8801)
	for trial := 0; trial < 20; trial++ {
		g := randomDigraph(12+rng.IntN(src, 40), 0.2, src)
		if g.M() < 4 {
			continue
		}
		switches := globalBatch(g.M(), src)

		seq := g.Clone()
		S := hashset.FromEdges(seq.Arcs(), 0.5)
		seqLegal := switching.ExecuteSequential(seq.Arcs(), S, switches)

		par := g.Clone()
		r := switching.NewRunner(par.Arcs(), maxi(len(switches), 1), 4)
		r.Pessimistic = true
		r.Run(switches)
		if r.Legal != seqLegal {
			t.Fatalf("pessimistic accepted %d, sequential %d", r.Legal, seqLegal)
		}
		for i := range seq.Arcs() {
			if seq.Arcs()[i] != par.Arcs()[i] {
				t.Fatalf("pessimistic mode diverges at arc %d", i)
			}
		}
	}
}

func TestDirectedPessimisticRoundsAtLeastNatural(t *testing.T) {
	src := rng.NewMT19937(8802)
	g := randomDigraph(64, 0.15, src)
	switches := globalBatch(g.M(), src)

	nat := switching.NewRunner(g.Clone().Arcs(), maxi(len(switches), 1), 1)
	nat.Run(switches)

	pes := switching.NewRunner(g.Clone().Arcs(), maxi(len(switches), 1), 1)
	pes.Pessimistic = true
	pes.Run(switches)

	if pes.TotalRounds < nat.TotalRounds {
		t.Fatalf("pessimistic rounds %d < natural rounds %d", pes.TotalRounds, nat.TotalRounds)
	}
}

func TestDirectedPessimisticRoundsBounded(t *testing.T) {
	// The round bound of the analysis carries over to directed
	// switching: several full global switches under the worst-case
	// scheduler stay within single-digit average rounds on a moderately
	// dense digraph.
	src := rng.NewMT19937(8803)
	g := randomDigraph(128, 0.08, src)
	m := g.M()
	r := switching.NewRunner(g.Arcs(), m/2, 2)
	r.Pessimistic = true
	var buf []switching.Switch
	for step := 0; step < 8; step++ {
		perm := rng.Perm(src, m)
		buf = switching.GlobalSwitches(perm, m/2, buf)
		r.Run(buf)
	}
	if avg := float64(r.TotalRounds) / float64(r.InternalSupersteps); avg > 10 {
		t.Fatalf("average pessimistic rounds %.2f unreasonably high", avg)
	}
}

func TestDirectedPessimisticViaConfig(t *testing.T) {
	// The config plumbing: results identical to the default scheduler.
	src := rng.NewMT19937(8804)
	g := randomDigraph(48, 0.15, src)
	a, b := g.Clone(), g.Clone()

	ea, err := newEngine(a, core.AlgParGlobalES, core.Config{Workers: 3, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ea.Steps(context.Background(), 5); err != nil {
		t.Fatal(err)
	}
	eb, err := newEngine(b, core.AlgParGlobalES, core.Config{Workers: 3, Seed: 4, PessimisticRounds: true})
	if err != nil {
		t.Fatal(err)
	}
	sb, err := eb.Steps(context.Background(), 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Arcs() {
		if a.Arcs()[i] != b.Arcs()[i] {
			t.Fatal("pessimistic config changed results")
		}
	}
	if sb.TotalRounds < int64(sb.InternalSupersteps) {
		t.Fatal("round accounting broken in pessimistic mode")
	}
}
