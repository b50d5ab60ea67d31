package exact

import (
	"errors"
	"sync"
	"testing"

	"gesmc/internal/gen"
	"gesmc/internal/graph"
)

// TestEnumerateCounts pins the exhaustive enumeration against closed-
// form realization counts: the all-2 hexagon has 70 labeled
// realizations (60 six-cycles + 10 triangle pairs), the all-1 sequence
// on 6 nodes the 15 perfect matchings of K6, and the small extremes
// have one (or three) realizations each.
func TestEnumerateCounts(t *testing.T) {
	cases := []struct {
		name    string
		degrees []int
		want    int
	}{
		{"hexagon-2regular", []int{2, 2, 2, 2, 2, 2}, 70},
		{"k6-matchings", []int{1, 1, 1, 1, 1, 1}, 15},
		{"k4", []int{3, 3, 3, 3}, 1},
		{"triangle", []int{2, 2, 2}, 1},
		{"two-pairs", []int{1, 1, 1, 1}, 3},
		{"empty", []int{0, 0, 0}, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			states, err := Enumerate(tc.degrees, 1000)
			if err != nil {
				t.Fatalf("Enumerate: %v", err)
			}
			if len(states) != tc.want {
				t.Fatalf("got %d realizations, want %d", len(states), tc.want)
			}
			seen := make(map[string]struct{}, len(states))
			for _, st := range states {
				g := graph.NewUnchecked(len(tc.degrees), st)
				if err := g.CheckSimple(); err != nil {
					t.Fatalf("realization not simple: %v", err)
				}
				for v, d := range g.Degrees() {
					if d != tc.degrees[v] {
						t.Fatalf("degree[%d] = %d, want %d", v, d, tc.degrees[v])
					}
				}
				k := Key(st)
				if _, dup := seen[k]; dup {
					t.Fatalf("duplicate realization %x", k)
				}
				seen[k] = struct{}{}
			}
		})
	}
}

func TestEnumerateLimit(t *testing.T) {
	if _, err := Enumerate([]int{2, 2, 2, 2, 2, 2}, 10); err == nil {
		t.Fatal("expected limit error for 70 realizations with limit 10")
	}
}

// chiSquareDraws draws `draws` samples and returns the chi-square
// statistic against the uniform distribution over the enumerated
// realizations, failing the test on an unknown state.
func chiSquareDraws(t *testing.T, s *Sampler, degrees []int, draws int) (chi2 float64, cells int) {
	t.Helper()
	states, err := Enumerate(degrees, 10_000)
	if err != nil {
		t.Fatalf("Enumerate: %v", err)
	}
	counts := make(map[string]int, len(states))
	for _, st := range states {
		counts[Key(st)] = 0
	}
	for i := 0; i < draws; i++ {
		edges, err := s.Draw()
		if err != nil {
			t.Fatalf("Draw %d: %v", i, err)
		}
		k := Key(edges)
		if _, ok := counts[k]; !ok {
			t.Fatalf("draw %d produced a state outside the enumeration", i)
		}
		counts[k]++
	}
	expected := float64(draws) / float64(len(states))
	for _, c := range counts {
		d := float64(c) - expected
		chi2 += d * d / expected
	}
	return chi2, len(states)
}

// TestUniformHexagon chi-squares the sampler against the known uniform
// expectation over the hexagon sequence's 70 realizations. Unlike the
// MCMC uniformity tests this compares to exact ground truth: df=69,
// mean 69, sd ~11.7, so 135 is a ~5.6σ bound.
func TestUniformHexagon(t *testing.T) {
	degrees := []int{2, 2, 2, 2, 2, 2}
	s, err := New(degrees, 0xC0FFEE)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	chi2, cells := chiSquareDraws(t, s, degrees, 14000)
	if cells != 70 {
		t.Fatalf("cells = %d, want 70", cells)
	}
	if chi2 > 135 {
		t.Fatalf("chi-square %.1f over %d cells exceeds threshold 135", chi2, cells)
	}
	st := s.Stats()
	if st.Legal != 14000 || st.Attempted != st.Legal+st.Restarts {
		t.Fatalf("inconsistent stats: %+v", st)
	}
	if st.Restarts == 0 {
		t.Fatal("hexagon sequence (λ+λ² = 0.75) should reject some configurations")
	}
	if st.LoopDefects+st.MultiDefects != st.Restarts {
		t.Fatalf("defect split %d+%d != restarts %d", st.LoopDefects, st.MultiDefects, st.Restarts)
	}
}

// TestUniformMatchings covers a second sequence: all-1 on 6 nodes (15
// perfect matchings of K6). λ = 0, so every configuration is simple
// and accepted; uniformity is purely the shuffle's.
func TestUniformMatchings(t *testing.T) {
	degrees := []int{1, 1, 1, 1, 1, 1}
	s, err := New(degrees, 42)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	chi2, cells := chiSquareDraws(t, s, degrees, 6000)
	if cells != 15 {
		t.Fatalf("cells = %d, want 15", cells)
	}
	// df=14: mean 14, sd ~5.3; 50 is a ~6.8σ bound.
	if chi2 > 50 {
		t.Fatalf("chi-square %.1f over %d cells exceeds threshold 50", chi2, cells)
	}
	if st := s.Stats(); st.Restarts != 0 {
		t.Fatalf("degree-1 sequence cannot produce defects, got %+v", st)
	}
}

// TestSeedDeterminism pins the i.i.d. draw stream as a pure function
// of the seed: the resume and failover machinery of the serving layer
// depends on it.
func TestSeedDeterminism(t *testing.T) {
	degrees := []int{3, 3, 2, 2, 2, 2, 1, 1}
	a, err := New(degrees, 7)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	b, _ := New(degrees, 7)
	c, _ := New(degrees, 8)
	diverged := false
	for i := 0; i < 50; i++ {
		ea, err := a.Draw()
		if err != nil {
			t.Fatalf("Draw: %v", err)
		}
		eb, _ := b.Draw()
		ec, _ := c.Draw()
		if Key(ea) != Key(eb) {
			t.Fatalf("draw %d differs between equal seeds", i)
		}
		if Key(ea) != Key(ec) {
			diverged = true
		}
	}
	if !diverged {
		t.Fatal("50 draws identical across different seeds")
	}
}

func TestDrawGraphValid(t *testing.T) {
	degrees := []int{4, 3, 3, 2, 2, 2, 1, 1}
	s, err := New(degrees, 1)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for i := 0; i < 200; i++ {
		g, err := s.DrawGraph()
		if err != nil {
			t.Fatalf("DrawGraph: %v", err)
		}
		if err := g.CheckSimple(); err != nil {
			t.Fatalf("draw %d not simple: %v", i, err)
		}
		for v, d := range g.Degrees() {
			if d != degrees[v] {
				t.Fatalf("draw %d: degree[%d] = %d, want %d", i, v, d, degrees[v])
			}
		}
	}
}

// TestUnsupportedBoundary pins the regime gate: dense sequences are
// refused with the typed *UnsupportedError (carrying the score), and
// non-graphical sequences fail the graphicality check instead.
func TestUnsupportedBoundary(t *testing.T) {
	dense := make([]int, 20)
	for i := range dense {
		dense[i] = 19 // K20: λ = 9, score 90
	}
	if err := Supported(dense); err == nil {
		t.Fatal("K20 sequence should be outside the regime")
	}
	_, err := New(dense, 0)
	var ue *UnsupportedError
	if !errors.As(err, &ue) {
		t.Fatalf("New(K20) = %v, want *UnsupportedError", err)
	}
	if ue.Score <= maxLambdaScore {
		t.Fatalf("score %v should exceed the gate %v", ue.Score, float64(maxLambdaScore))
	}

	if err := Supported([]int{2, 2, 2, 2}); err != nil {
		t.Fatalf("cycle sequence should be supported: %v", err)
	}
	if _, err := New([]int{3, 3, 1, 1}, 0); !errors.Is(err, gen.ErrNotGraphical) {
		t.Fatalf("non-graphical sequence: got %v, want ErrNotGraphical", err)
	}

	// Degenerate sequences inside the regime: empty and single-edge.
	for _, degrees := range [][]int{{}, {0, 0}, {1, 1}} {
		s, err := New(degrees, 0)
		if err != nil {
			t.Fatalf("New(%v): %v", degrees, err)
		}
		if _, err := s.Draw(); err != nil {
			t.Fatalf("Draw(%v): %v", degrees, err)
		}
	}
}

// TestConcurrentSamplers races independent samplers on shared seeds:
// the package holds no global state, so per-goroutine samplers must
// be exactly reproducible regardless of interleaving (-race backs
// this in CI at -cpu=1,2,4).
func TestConcurrentSamplers(t *testing.T) {
	degrees := []int{2, 2, 2, 2, 2, 2}
	ref, err := New(degrees, 99)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	want := make([]string, 40)
	for i := range want {
		edges, err := ref.Draw()
		if err != nil {
			t.Fatalf("Draw: %v", err)
		}
		want[i] = Key(edges)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s, err := New(degrees, 99)
			if err != nil {
				errs <- err
				return
			}
			for i := range want {
				edges, err := s.Draw()
				if err != nil {
					errs <- err
					return
				}
				if Key(edges) != want[i] {
					errs <- errors.New("draw diverged across goroutines")
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// DrawGraph is Draw returning a *graph.Graph (the edge list is
// sorted, so graph.NewUnchecked's invariants hold).
func (s *Sampler) DrawGraph() (*graph.Graph, error) {
	edges, err := s.Draw()
	if err != nil {
		return nil, err
	}
	return graph.NewUnchecked(s.n, edges), nil
}
