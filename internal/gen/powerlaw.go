package gen

import (
	"fmt"

	"gesmc/internal/graph"
	"math"

	"gesmc/internal/rng"
)

// PowerLawSequence samples n degrees from the integer power-law
// distribution Pld([a..b], gamma): P[X = k] proportional to k^-gamma for
// a <= k <= b (§2.1 of the paper). The sum is made even by incrementing
// one node's degree if necessary, so the sequence always has a chance of
// being graphical.
func PowerLawSequence(n int, a, b int, gamma float64, src rng.Source) []int {
	if n < 0 || a < 1 || b < a {
		panic("gen: invalid power-law parameters")
	}
	weights := make([]float64, b-a+1)
	for k := a; k <= b; k++ {
		weights[k-a] = math.Pow(float64(k), -gamma)
	}
	alias := rng.NewAlias(weights)
	deg := make([]int, n)
	sum := 0
	for i := range deg {
		deg[i] = a + alias.Sample(src)
		sum += deg[i]
	}
	if sum%2 == 1 {
		// Bump a node that can still grow.
		for i := range deg {
			if deg[i] < b {
				deg[i]++
				break
			}
		}
	}
	return deg
}

// PaperMaxDegree returns the maximum degree Delta = n^{1/(gamma-1)} used
// by the paper's SynPld dataset (matching the analytic bound of Gao and
// Wormald).
func PaperMaxDegree(n int, gamma float64) int {
	// Clamp in floating point first: for gamma just above 1 the power
	// overflows int, and the conversion of an out-of-range float is
	// implementation-defined.
	d := int(min(math.Pow(float64(n), 1/(gamma-1)), float64(n)))
	if d < 1 {
		d = 1
	}
	if d > n-1 {
		d = n - 1
	}
	return d
}

// SynPldSequence samples a SynPld degree sequence for node count n and
// exponent gamma with the paper's degree range [1, n^{1/(gamma-1)}].
func SynPldSequence(n int, gamma float64, src rng.Source) []int {
	return PowerLawSequence(n, 1, PaperMaxDegree(n, gamma), gamma, src)
}

// SynPldGraph samples SynPld sequences until one is graphical (highly
// skewed exponents occasionally produce non-graphical samples on small n)
// and realizes it with Havel-Hakimi, mirroring the paper's SynPld
// pipeline. It gives up after a fixed number of attempts. It rejects
// n < 2 and any gamma that is not a finite value above 1: the degree
// range [1, n^{1/(gamma-1)}] is then empty or collapses to [1, 1].
func SynPldGraph(n int, gamma float64, src rng.Source) (*graph.Graph, error) {
	if n < 2 || !(gamma > 1) || math.IsInf(gamma, 1) {
		return nil, fmt.Errorf("gen: SynPld needs n >= 2 and a finite gamma > 1, got n=%d gamma=%v", n, gamma)
	}
	var err error
	for try := 0; try < 64; try++ {
		seq := SynPldSequence(n, gamma, src)
		var g *graph.Graph
		if g, err = GraphFromSequence(seq); err == nil {
			return g, nil
		}
	}
	return nil, fmt.Errorf("gen: SynPld n=%d gamma=%v: %w", n, gamma, err)
}
