package autocorr

import (
	"context"

	"gesmc/internal/graph"
	"gesmc/internal/switching"
)

// Result is the outcome of one analysis run.
type Result struct {
	Thinnings []int
	// NonIndependent[i] is the fraction of tracked edges still
	// Markov-like at thinning Thinnings[i].
	NonIndependent []float64
}

// Analyze runs eng for supersteps supersteps, one Steps call each, and
// returns the fraction of non-independent edges per thinning value. The
// tracked edges are those in live at entry (the paper's NetRep
// protocol; for tiny graphs this is nearly all information). live must
// be the target's edge list that eng's stepper mutates in place or
// writes back in Finish, so that after every Steps call it holds the
// chain's current edges; recording scans it against an index of the
// tracked edges in Θ(m) per superstep.
func Analyze(eng *switching.Engine, live []graph.Edge, supersteps int, thinnings []int) (Result, error) {
	index := make(map[graph.Edge]int, len(live))
	for i, e := range live {
		index[e] = i
	}
	col := NewCollector(len(live), thinnings)
	bits := make([]bool, len(live))
	record := func(t int) {
		clear(bits)
		for _, e := range live {
			if i, ok := index[e]; ok {
				bits[i] = true
			}
		}
		col.Record(t, bits)
	}

	record(0)
	for t := 1; t <= supersteps; t++ {
		if _, err := eng.Steps(context.Background(), 1); err != nil {
			return Result{}, err
		}
		record(t)
	}
	return Result{Thinnings: col.Thinnings(), NonIndependent: col.FractionNonIndependent()}, nil
}

// FirstThinningBelow returns the smallest thinning value whose
// non-independent fraction is below tau, or 0 if none qualifies — the
// y-axis of Figure 3, and the natural input to WithThinning when drawing
// ensembles from graphs of the same scale.
func (r Result) FirstThinningBelow(tau float64) int {
	for i, k := range r.Thinnings {
		if r.NonIndependent[i] < tau {
			return k
		}
	}
	return 0
}

// MeanResults averages the NonIndependent curves of several runs
// (same thinning schedule required).
func MeanResults(results []Result) Result {
	if len(results) == 0 {
		return Result{}
	}
	out := Result{
		Thinnings:      results[0].Thinnings,
		NonIndependent: make([]float64, len(results[0].NonIndependent)),
	}
	for _, r := range results {
		for i, v := range r.NonIndependent {
			out.NonIndependent[i] += v
		}
	}
	for i := range out.NonIndependent {
		out.NonIndependent[i] /= float64(len(results))
	}
	return out
}
