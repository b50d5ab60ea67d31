package core

import (
	"context"
	"testing"

	"gesmc/internal/gen"
	"gesmc/internal/rng"
)

// TestEngineSplitStepsMatchOneShot: advancing an Engine in increments
// must reproduce the one-shot Run edge list bit for bit, for every
// algorithm. This is the resumability contract the public Sampler
// builds on.
func TestEngineSplitStepsMatchOneShot(t *testing.T) {
	src := rng.NewMT19937(99)
	g, err := gen.SynPldGraph(1<<9, 2.3, src)
	if err != nil {
		t.Fatal(err)
	}
	const steps = 12
	for _, alg := range allAlgorithms {
		cfg := Config{Seed: 7, Workers: 3}
		oneShot := g.Clone()
		rs, err := Run(oneShot, alg, steps, cfg)
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}

		split := g.Clone()
		e, err := NewEngine(split, alg, cfg)
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		var attempted, legal int64
		for _, k := range []int{1, 4, 7} {
			d, err := e.Steps(context.Background(), k)
			if err != nil {
				t.Fatalf("%v: %v", alg, err)
			}
			attempted += d.Attempted
			legal += d.Legal
		}
		a, b := oneShot.Edges(), split.Edges()
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%v: split-steps edge list diverges at %d", alg, i)
			}
		}
		if attempted != rs.Attempted || legal != rs.Legal {
			t.Fatalf("%v: split stats (%d, %d) != one-shot (%d, %d)",
				alg, attempted, legal, rs.Attempted, rs.Legal)
		}
		if st := e.Stats(); st.Supersteps != steps || st.Attempted != attempted {
			t.Fatalf("%v: cumulative stats wrong: %+v", alg, st)
		}
	}
}

// TestEngineContextCancellation: a cancelled context stops the engine at
// a superstep boundary, returning partial stats and a valid graph.
func TestEngineContextCancellation(t *testing.T) {
	g := gen.GNP(256, 0.08, rng.NewMT19937(6))
	e, err := NewEngine(g, AlgParGlobalES, Config{Seed: 1, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	d, err := e.Steps(ctx, 10)
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if d.Supersteps != 0 {
		t.Fatalf("cancelled before start but ran %d supersteps", d.Supersteps)
	}
	if err := g.CheckSimple(); err != nil {
		t.Fatal(err)
	}
	// The engine remains usable after cancellation.
	if _, err := e.Steps(context.Background(), 2); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.Supersteps != 2 {
		t.Fatalf("supersteps after resume = %d, want 2", st.Supersteps)
	}
}
