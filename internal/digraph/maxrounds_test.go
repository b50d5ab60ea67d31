package digraph

import (
	"context"
	"testing"

	"gesmc/internal/core"
)

// TestStepsMaxRoundsPerIncrement is the directed mirror of core's test:
// each single-superstep increment reports its own round count as
// MaxRounds, never the engine's lifetime maximum. Ten hubs with
// in- and out-degree 30 among 390 nodes of in- and out-degree 1 make
// the pessimistic round counts vary between supersteps.
func TestStepsMaxRoundsPerIncrement(t *testing.T) {
	var deg []int
	for i := 0; i < 400; i++ {
		d := 1
		if i < 10 {
			d = 30
		}
		deg = append(deg, d)
	}
	g, err := KleitmanWang(deg, deg)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := newEngine(g, core.AlgParGlobalES, core.Config{Workers: 2, Seed: 3, PessimisticRounds: true})
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
