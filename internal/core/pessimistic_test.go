package core

import (
	"testing"

	"gesmc/internal/gen"
	"gesmc/internal/graph"
	"gesmc/internal/rng"
	"gesmc/internal/switching"
)

func TestPessimisticSchedulerSameResults(t *testing.T) {
	// Worst-case scheduling may only change round counts, never the
	// decided graph.
	src := rng.NewMT19937(7007)
	for trial := 0; trial < 20; trial++ {
		g, err := gen.SynPldGraph(128, 2.05, src)
		if err != nil {
			t.Fatal(err)
		}
		switches := globalSwitchBatch(g.M(), src)

		seqE, seqLegal := runSequentialReference(g, switches)

		c := g.Clone()
		r := newSuperstepRunner(c.Edges(), max(len(switches), 1), 4)
		r.Pessimistic = true
		r.Run(switches)
		if r.Legal != seqLegal {
			t.Fatalf("pessimistic accepted %d, sequential %d", r.Legal, seqLegal)
		}
		for i := range seqE {
			if c.Edges()[i] != seqE[i] {
				t.Fatalf("pessimistic mode diverges at edge %d", i)
			}
		}
	}
}

func TestPessimisticRoundsAtLeastNatural(t *testing.T) {
	src := rng.NewMT19937(7008)
	g, err := gen.SynPldGraph(256, 2.05, src)
	if err != nil {
		t.Fatal(err)
	}
	switches := globalSwitchBatch(g.M(), src)

	nat := newSuperstepRunner(g.Clone().Edges(), max(len(switches), 1), 1)
	nat.Run(switches)

	pes := newSuperstepRunner(g.Clone().Edges(), max(len(switches), 1), 1)
	pes.Pessimistic = true
	pes.Run(switches)

	if pes.TotalRounds < nat.TotalRounds {
		t.Fatalf("pessimistic rounds %d < natural rounds %d", pes.TotalRounds, nat.TotalRounds)
	}
}

// measurePessimisticRounds runs several full global switches in
// pessimistic mode and returns the average rounds per superstep.
func measurePessimisticRounds(g *graph.Graph, src *rng.MT19937) float64 {
	c := g.Clone()
	m := c.M()
	r := newSuperstepRunner(c.Edges(), m/2, 2)
	r.Pessimistic = true
	for step := 0; step < 8; step++ {
		perm := rng.Perm(src, m)
		r.Run(switching.GlobalSwitches(perm, m/2, nil))
	}
	return float64(r.TotalRounds) / float64(r.InternalSupersteps)
}

func TestPessimisticRoundsShape(t *testing.T) {
	// Theorem 2 / Corollary 2 vs Theorem 3: a regular graph needs O(1)
	// rounds even under the worst-case scheduler; both stay in single
	// digits at these sizes, with the skewed graph at least comparable.
	src := rng.NewMT19937(7009)

	reg, err := gen.Regular(1024, 8)
	if err != nil {
		t.Fatal(err)
	}
	regRounds := measurePessimisticRounds(reg, src)

	pl, err := gen.SynPldGraph(1024, 2.01, src)
	if err != nil {
		t.Fatal(err)
	}
	plRounds := measurePessimisticRounds(pl, src)

	if regRounds > 6 {
		t.Fatalf("regular graph pessimistic rounds %.2f too high (Corollary 2)", regRounds)
	}
	if plRounds > 14 {
		t.Fatalf("power-law pessimistic rounds %.2f unreasonably high", plRounds)
	}
	if plRounds+0.51 < regRounds {
		t.Fatalf("skewed graph (%.2f) needed clearly fewer rounds than regular (%.2f)", plRounds, regRounds)
	}
}

func TestPessimisticViaRunConfig(t *testing.T) {
	// The config plumbing: results identical to the default scheduler.
	src := rng.NewMT19937(7010)
	base := gen.GNP(96, 0.12, src)
	a, b := base.Clone(), base.Clone()
	if _, err := Run(a, AlgParGlobalES, 5, Config{Workers: 3, Seed: 4}); err != nil {
		t.Fatal(err)
	}
	sb, err := Run(b, AlgParGlobalES, 5, Config{Workers: 3, Seed: 4, PessimisticRounds: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Edges() {
		if a.Edges()[i] != b.Edges()[i] {
			t.Fatal("pessimistic config changed results")
		}
	}
	if sb.TotalRounds < int64(sb.InternalSupersteps) {
		t.Fatal("round accounting broken in pessimistic mode")
	}
}
