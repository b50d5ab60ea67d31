package autocorr

import (
	"errors"
	"math"
	"slices"
	"testing"

	"gesmc/internal/core"
	"gesmc/internal/curveball"
	"gesmc/internal/gen"
	"gesmc/internal/graph"
	"gesmc/internal/rng"
	"gesmc/internal/switching"
)

func TestG2Degenerate(t *testing.T) {
	if s, n := g2([4]uint32{0, 0, 0, 0}); s != 0 || n != 0 {
		t.Fatalf("empty table: %v, %d", s, n)
	}
	// Constant series (always present): only n11 counts.
	if s, _ := g2([4]uint32{0, 0, 0, 100}); s != 0 {
		t.Fatalf("constant series G2 = %v, want 0", s)
	}
	// Perfectly independent 2x2 table: G2 = 0.
	if s, _ := g2([4]uint32{25, 25, 25, 25}); math.Abs(s) > 1e-9 {
		t.Fatalf("balanced table G2 = %v, want 0", s)
	}
}

func TestG2DetectsStrongDependence(t *testing.T) {
	// Deterministic alternation: heavily Markov-like.
	s, n := g2([4]uint32{0, 50, 50, 0})
	if n != 100 {
		t.Fatalf("n = %d", n)
	}
	if s <= math.Log(100) {
		t.Fatalf("alternating series not flagged: G2 = %v", s)
	}
}

func TestCollectorIndependentSeries(t *testing.T) {
	// Feed iid bits: virtually all edges should be deemed independent
	// at every thinning.
	src := rng.NewMT19937(42)
	const nEdges = 500
	col := NewCollector(nEdges, []int{1, 2, 4})
	bits := make([]bool, nEdges)
	for t0 := 0; t0 <= 400; t0++ {
		for i := range bits {
			bits[i] = rng.Bool(src)
		}
		col.Record(t0, bits)
	}
	fr := col.FractionNonIndependent()
	for i, f := range fr {
		if f > 0.05 {
			t.Fatalf("thinning %d: %.3f flagged dependent on iid input", col.Thinnings()[i], f)
		}
	}
}

func TestCollectorMarkovSeries(t *testing.T) {
	// Feed strongly sticky Markov bits (stay with prob 0.95): thinning
	// 1 must flag nearly everything; large thinnings much less.
	src := rng.NewMT19937(43)
	const nEdges = 300
	col := NewCollector(nEdges, []int{1, 32})
	state := make([]bool, nEdges)
	bits := make([]bool, nEdges)
	for t0 := 0; t0 <= 2000; t0++ {
		for i := range state {
			if rng.Float64(src) < 0.05 {
				state[i] = !state[i]
			}
			bits[i] = state[i]
		}
		col.Record(t0, bits)
	}
	fr := col.FractionNonIndependent()
	if fr[0] < 0.9 {
		t.Fatalf("thinning 1 flagged only %.3f of sticky series", fr[0])
	}
	if fr[1] > fr[0]/2 {
		t.Fatalf("thinning 32 (%.3f) should be far below thinning 1 (%.3f)", fr[1], fr[0])
	}
}

func TestCollectorThinningSchedule(t *testing.T) {
	col := NewCollector(1, []int{2})
	bits := []bool{true}
	for t0 := 0; t0 <= 10; t0++ {
		col.Record(t0, bits)
	}
	// Thinned series has entries at t=0,2,4,6,8,10 -> 5 transitions.
	if got := col.counts[0][3]; got != 5 {
		t.Fatalf("thinned transition count = %d, want 5", got)
	}
	if col.Samples(0) != 5 {
		t.Fatalf("Samples = %d", col.Samples(0))
	}
}

func TestDefaultThinnings(t *testing.T) {
	th := DefaultThinnings(50)
	if th[0] != 1 {
		t.Fatal("schedule must start at 1")
	}
	for i := 1; i < len(th); i++ {
		if th[i] <= th[i-1] || th[i] > 50 {
			t.Fatalf("bad schedule %v", th)
		}
	}
}

func TestAnalyzeBothChains(t *testing.T) {
	src := rng.NewMT19937(7)
	g, err := gen.SynPldGraph(128, 2.3, src)
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range []core.Algorithm{core.AlgSeqES, core.AlgSeqGlobalES} {
		work := g.Clone()
		eng, err := core.NewEngine(work, alg, core.Config{Seed: 99})
		if err != nil {
			t.Fatal(err)
		}
		res, err := Analyze(eng, work.Edges(), 60, DefaultThinnings(16))
		eng.Close()
		if err != nil {
			t.Fatal(err)
		}
		if len(res.NonIndependent) != len(res.Thinnings) {
			t.Fatal("result length mismatch")
		}
		// At thinning 1 the chain is strongly autocorrelated.
		if res.NonIndependent[0] < 0.3 {
			t.Fatalf("%v: thinning 1 fraction %.3f suspiciously low", alg, res.NonIndependent[0])
		}
		// Fractions are probabilities.
		for _, f := range res.NonIndependent {
			if f < 0 || f > 1 {
				t.Fatalf("fraction %v out of range", f)
			}
		}
		// The curve should broadly decrease: final below initial.
		last := res.NonIndependent[len(res.NonIndependent)-1]
		if last >= res.NonIndependent[0] {
			t.Fatalf("%v: no decay: first %.3f, last %.3f", alg, res.NonIndependent[0], last)
		}
	}
}

// toggler is a stepper that alternates live[0] between the tracked edge
// it started as and an untracked edge, leaving every other edge fixed.
type toggler struct {
	live    []graph.Edge
	a, b    graph.Edge
	failAt  int
	stepped int
}

func (s *toggler) Step(*switching.Stats) error {
	s.stepped++
	if s.stepped == s.failAt {
		return errors.New("stepper failed")
	}
	if s.live[0] == s.a {
		s.live[0] = s.b
	} else {
		s.live[0] = s.a
	}
	return nil
}

func TestAnalyzeTracksLiveEdges(t *testing.T) {
	live := []graph.Edge{graph.MakeEdge(0, 1), graph.MakeEdge(2, 3), graph.MakeEdge(4, 5), graph.MakeEdge(6, 7)}
	st := &toggler{live: live, a: live[0], b: graph.MakeEdge(0, 3)}
	res, err := Analyze(switching.NewEngine(st), live, 32, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	// At k=1 only the alternating edge is Markov-like; at k=2 its
	// thinned series is constant like every other edge's.
	if want := []float64{0.25, 0}; !slices.Equal(res.NonIndependent, want) {
		t.Fatalf("NonIndependent = %v, want %v", res.NonIndependent, want)
	}

	failing := &toggler{live: live, a: live[0], b: graph.MakeEdge(0, 3), failAt: 3}
	if _, err := Analyze(switching.NewEngine(failing), live, 32, []int{1}); err == nil {
		t.Fatal("stepper error not returned")
	}
}

func TestFirstThinningBelow(t *testing.T) {
	r := Result{
		Thinnings:      []int{1, 2, 4},
		NonIndependent: []float64{0.5, 0.2, 0.005},
	}
	if k := r.FirstThinningBelow(0.01); k != 4 {
		t.Fatalf("FirstThinningBelow(0.01) = %d", k)
	}
	if k := r.FirstThinningBelow(0.3); k != 2 {
		t.Fatalf("FirstThinningBelow(0.3) = %d", k)
	}
	if k := r.FirstThinningBelow(0.001); k != 0 {
		t.Fatalf("FirstThinningBelow(0.001) = %d", k)
	}
}

func TestMeanResults(t *testing.T) {
	a := Result{Thinnings: []int{1, 2}, NonIndependent: []float64{1, 0.5}}
	b := Result{Thinnings: []int{1, 2}, NonIndependent: []float64{0, 0.5}}
	m := MeanResults([]Result{a, b})
	if m.NonIndependent[0] != 0.5 || m.NonIndependent[1] != 0.5 {
		t.Fatalf("mean = %v", m.NonIndependent)
	}
	if MeanResults(nil).NonIndependent != nil {
		t.Fatal("empty mean should be zero value")
	}
}

func TestAnalyzeCurveball(t *testing.T) {
	src := rng.NewMT19937(8)
	g, err := gen.SynPldGraph(128, 2.4, src)
	if err != nil {
		t.Fatal(err)
	}
	for _, global := range []bool{false, true} {
		work := g.Clone()
		eng := switching.NewEngine(curveball.NewEngine(work, 2, 99).Stepper(global, work.Edges()))
		res, err := Analyze(eng, work.Edges(), 48, DefaultThinnings(8))
		eng.Close()
		if err != nil {
			t.Fatal(err)
		}
		if len(res.NonIndependent) != len(res.Thinnings) {
			t.Fatal("malformed result")
		}
		for _, f := range res.NonIndependent {
			if f < 0 || f > 1 {
				t.Fatalf("fraction %v out of range", f)
			}
		}
		// Trades decorrelate over supersteps: the curve must decay.
		if res.NonIndependent[len(res.NonIndependent)-1] >= res.NonIndependent[0] {
			t.Fatalf("no decay (global=%v): %v", global, res.NonIndependent)
		}
	}
}
