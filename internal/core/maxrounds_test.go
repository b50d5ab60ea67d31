package core_test

import (
	"context"
	"testing"

	"gesmc/internal/core"
	"gesmc/internal/gen"
)

// TestStepsMaxRoundsPerIncrement: the MaxRounds of a Steps increment is
// the largest round count among that increment's own supersteps, not
// the engine's lifetime maximum. The pessimistic scheduler makes round
// counts deterministic, and the hub-heavy target (ten degree-60 hubs
// among 390 degree-2 nodes) makes them vary between supersteps, so a
// lifetime maximum leaking into the deltas shows up as a single
// superstep whose MaxRounds exceeds its own TotalRounds.
func TestStepsMaxRoundsPerIncrement(t *testing.T) {
	var degrees []int
	for i := 0; i < 400; i++ {
		d := 2
		if i < 10 {
			d = 60
		}
		degrees = append(degrees, d)
	}
	g, err := gen.GraphFromSequence(degrees)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.NewEngine(g, core.AlgParGlobalES, core.Config{Workers: 2, Seed: 3, PessimisticRounds: true})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	peak, varied := 0, false
	for i := 0; i < 50; i++ {
		d, err := eng.Steps(context.Background(), 1)
		if err != nil {
			t.Fatal(err)
		}
		if d.InternalSupersteps != 1 || int64(d.MaxRounds) != d.TotalRounds {
			t.Fatalf("step %d: MaxRounds %d, TotalRounds %d over %d kernel supersteps; want MaxRounds == TotalRounds",
				i, d.MaxRounds, d.TotalRounds, d.InternalSupersteps)
		}
		varied = varied || (i > 0 && d.MaxRounds != peak)
		peak = max(peak, d.MaxRounds)
	}
	if !varied {
		t.Fatal("round counts never varied; the target does not exercise the per-increment maximum")
	}
	if life := eng.Stats().MaxRounds; life != peak {
		t.Fatalf("lifetime MaxRounds %d, want the maximum %d over the increments", life, peak)
	}
}
