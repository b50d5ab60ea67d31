package gesmc

import "testing"

// additiveCounters lists the Stats fields that sum across increments.
func additiveCounters(st Stats) map[string]int64 {
	return map[string]int64{
		"Supersteps":       int64(st.Supersteps),
		"Attempted":        st.Attempted,
		"Accepted":         st.Accepted,
		"FirstRoundTime":   int64(st.FirstRoundTime),
		"LaterRoundsTime":  int64(st.LaterRoundsTime),
		"ConstraintVetoes": st.ConstraintVetoes,
		"EscapeAttempts":   st.EscapeAttempts,
		"EscapeMoves":      st.EscapeMoves,
		"Restarts":         st.Restarts,
		"LoopDefects":      st.LoopDefects,
		"MultiDefects":     st.MultiDefects,
		"Duration":         int64(st.Duration),
	}
}

// TestStatsAddUpAcrossTiers: for every tier — the switching chains, the
// trade chains, the exact sampler, directed and bipartite targets, and
// a connectivity-constrained chain — the Step deltas sum to the
// sampler's lifetime Stats on every additive field, and the largest
// delta MaxRounds is the lifetime MaxRounds.
func TestStatsAddUpAcrossTiers(t *testing.T) {
	hubs := make([]int, 120)
	for i := range hubs {
		hubs[i] = 2
		if i < 6 {
			hubs[i] = 20
		}
	}
	cubic := make([]int, 60)
	for i := range cubic {
		cubic[i] = 3
	}
	undirected := func(deg []int) func(t *testing.T) Target {
		return func(t *testing.T) Target {
			g, err := FromDegrees(deg)
			if err != nil {
				t.Fatal(err)
			}
			return g
		}
	}
	directed := func(t *testing.T) Target {
		g, err := FromInOutDegrees(hubs[:60], hubs[:60])
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	bipartite := func(t *testing.T) Target {
		g, err := FromBipartiteDegrees(cubic[:40], cubic[:40])
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	ring := func(t *testing.T) Target { return fragileRing(t, 40) }
	var progressed int
	cases := []struct {
		name   string
		target func(t *testing.T) Target
		opts   []Option
	}{
		{"SeqES", undirected(hubs), []Option{WithAlgorithm(SeqES)}},
		{"ParES", undirected(hubs), []Option{WithAlgorithm(ParES)}},
		{"ParGlobalES", undirected(hubs), []Option{WithAlgorithm(ParGlobalES)}},
		{"ParGlobalES/progress", undirected(hubs), []Option{WithAlgorithm(ParGlobalES),
			WithProgress(func(Progress) { progressed++ })}},
		{"Curveball", undirected(hubs), []Option{WithAlgorithm(Curveball)}},
		{"GlobalCurveball", undirected(hubs), []Option{WithAlgorithm(GlobalCurveball)}},
		{"Exact", undirected(cubic), []Option{WithAlgorithm(Exact)}},
		{"directed/SeqES", directed, []Option{WithAlgorithm(SeqES)}},
		{"directed/SeqGlobalES", directed, []Option{WithAlgorithm(SeqGlobalES)}},
		{"directed/ParGlobalES", directed, []Option{WithAlgorithm(ParGlobalES)}},
		{"bipartite/ParGlobalES", bipartite, []Option{WithAlgorithm(ParGlobalES)}},
		{"connected/ParGlobalES", ring, []Option{WithAlgorithm(ParGlobalES), WithConstraint(Connected())}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, err := NewSampler(tc.target(t), append(tc.opts, WithWorkers(2), WithSeed(5))...)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			sum := map[string]int64{}
			maxRounds := 0
			for _, k := range []int{1, 3, 2, 1, 4} {
				d, err := s.Step(k)
				if err != nil {
					t.Fatal(err)
				}
				if d.Supersteps != k {
					t.Fatalf("Step(%d) advanced %d supersteps", k, d.Supersteps)
				}
				for f, v := range additiveCounters(d) {
					sum[f] += v
				}
				maxRounds = max(maxRounds, d.MaxRounds)
			}
			life := s.Stats()
			for f, v := range additiveCounters(life) {
				if sum[f] != v {
					t.Errorf("%s: deltas sum to %d, lifetime %d", f, sum[f], v)
				}
			}
			if maxRounds != life.MaxRounds {
				t.Errorf("MaxRounds: largest delta %d, lifetime %d", maxRounds, life.MaxRounds)
			}
			if life.Attempted == 0 || life.Accepted == 0 {
				t.Fatalf("chain did no work: %+v", life)
			}
			if tc.name == "connected/ParGlobalES" && life.ConstraintVetoes == 0 {
				t.Fatal("no constraint rejections; the rollback path is untested")
			}
		})
	}
	if progressed != 11 {
		t.Fatalf("progress fired %d times, want 11", progressed)
	}
}
