package main

import (
	"context"
	"encoding/json"
	"os"
	"testing"

	"gesmc"
	"gesmc/wire"
)

// benchmarkSpec reads the metric names BENCHMARK.json declares.
func benchmarkSpec(t *testing.T) (endToEnd, perLayer []string) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, m := range spec.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range spec.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	return endToEnd, perLayer
}

// TestWorkloadsTiny runs every workload, untraced and traced, at a tiny
// scale: every delivered sample must verify, and the result must carry
// exactly the metrics BENCHMARK.json declares.
func TestWorkloadsTiny(t *testing.T) {
	endToEnd, perLayer := benchmarkSpec(t)
	for name := range drivers {
		for _, traced := range []bool{false, true} {
			res, err := execute(context.Background(), name, tinyScale, 3, traced, t.TempDir())
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d",
					name, traced, res.Correct, res.Attempted, res.Failed)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json declares %d",
					name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				if _, ok := res.Metrics[m]; !ok {
					t.Errorf("%s traced=%v: metric %s missing", name, traced, m)
				}
			}
		}
	}
}

// TestVerifierCountsCorruption feeds the verifier a line with one edge
// dropped and a line with the wrong tier label: both must count as
// failures, beside a valid line that must pass.
func TestVerifierCountsCorruption(t *testing.T) {
	degrees := []int{3, 3, 2, 2, 2, 1, 1}
	g, err := gesmc.FromDegrees(degrees)
	if err != nil {
		t.Fatal(err)
	}
	s, err := gesmc.NewSampler(g, gesmc.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	smps, err := s.Collect(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	valid := sampleLine(smps[0])

	dropped := valid
	dropped.Edges = valid.Edges[1:]
	wrongTier := valid
	st := *valid.Stats
	st.Uniformity = "exact"
	wrongTier.Stats = &st

	r := newRun("self-test", tinyScale, 1, false)
	e := undirected(degrees, "mcmc")
	var v verifier
	for _, ln := range []wire.Line{valid, dropped, wrongTier} {
		t1 := tally{expected: 1}
		t1.line(r, &v, e, &ln, 0)
		r.count(t1)
	}
	if r.attempted != 3 || r.failed != 2 {
		t.Fatalf("attempted=%d failed=%d, want 3 and 2", r.attempted, r.failed)
	}
	if len(r.reasons) != 2 {
		t.Fatalf("failure reasons %q, want one per corrupted line", r.reasons)
	}
}

// TestGraphicalMatchesSystemGate checks the benchmark's own
// Erdős–Gallai test against the system's.
func TestGraphicalMatchesSystemGate(t *testing.T) {
	for _, deg := range [][]int{
		{3, 3, 2, 2, 2, 1, 1}, {3, 3, 3, 1}, {4, 4, 4, 4, 4}, {1, 1}, {2, 2}, {0},
		{5, 1, 1, 1, 1, 1}, {3, 3, 3, 3}, {4, 1, 1, 1, 1}, {2, 2, 2, 2, 2, 2, 4},
	} {
		if got, want := graphical(deg), gesmc.IsGraphical(deg); got != want {
			t.Errorf("graphical(%v) = %v, IsGraphical = %v", deg, got, want)
		}
	}
}
