package main

import (
	"math"
	"math/rand/v2"
	"slices"
)

// The benchmark draws every input itself from the run's seed, so the
// system under test receives only degree sequences and edge lists, and
// a change to the system's own generators cannot change the inputs.

// gamma is the exponent of every power-law target, the paper's SynPld
// exponent.
const gamma = 2.2

// powerLawDegrees draws a graphical sequence of n degrees from a power
// law with exponent gamma on [1, √n]. The structural cutoff √n, rather
// than the paper's n^{1/(gamma-1)}, keeps the edge count within a few
// percent across seeds, so runs with different seeds do equal work.
func powerLawDegrees(rng *rand.Rand, n int) []int {
	dmax := math.Min(math.Sqrt(float64(n)), float64(n-1))
	a := math.Pow(dmax+1, 1-gamma)
	for {
		deg := make([]int, n)
		sum := 0
		for i := range deg {
			// Inverse CDF of the continuous power law on [1, dmax+1).
			x := math.Pow(1+(a-1)*rng.Float64(), 1/(1-gamma))
			deg[i] = min(max(int(x), 1), int(dmax))
			sum += deg[i]
		}
		if sum%2 == 1 {
			deg[0]++
		}
		if graphical(deg) {
			return deg
		}
	}
}

// boundedDegrees draws a graphical sequence of n degrees in 1..3, well
// inside the exact tier's regime (λ ≤ 1, so λ+λ² ≤ 2).
func boundedDegrees(rng *rand.Rand, n int) []int {
	for {
		deg := make([]int, n)
		sum := 0
		for i := range deg {
			deg[i] = 1 + rng.IntN(3)
			sum += deg[i]
		}
		if sum%2 == 1 {
			// Flip the parity and stay in 1..3.
			if deg[0] == 3 {
				deg[0] = 2
			} else {
				deg[0]++
			}
		}
		if graphical(deg) {
			return deg
		}
	}
}

// graphical is the Erdős–Gallai test.
func graphical(degrees []int) bool {
	d := slices.Clone(degrees)
	slices.SortFunc(d, func(a, b int) int { return b - a })
	n := len(d)
	prefix := make([]int, n+1)
	for i, x := range d {
		if x < 0 || x >= n {
			return false
		}
		prefix[i+1] = prefix[i] + x
	}
	if prefix[n]%2 != 0 {
		return false
	}
	j := n // d[i] >= k for every i < j
	for k := 1; k <= n; k++ {
		for j > 0 && d[j-1] < k {
			j--
		}
		// Σ_{i>k} min(d_i, k): the indices in [k, j) contribute k each.
		rest := prefix[n] - prefix[max(j, k)] + k*max(j-k, 0)
		if prefix[k] > k*(k-1)+rest {
			return false
		}
	}
	return true
}

// randomArcs draws m distinct arcs with tails in [0, tails) and heads
// in [headBase, headBase+heads), skipping loops.
func randomArcs(rng *rand.Rand, tails, headBase, heads, m int) [][2]uint32 {
	seen := make(map[[2]uint32]bool, m)
	arcs := make([][2]uint32, 0, m)
	for len(arcs) < m {
		a := [2]uint32{uint32(rng.IntN(tails)), uint32(headBase + rng.IntN(heads))}
		if a[0] == a[1] || seen[a] {
			continue
		}
		seen[a] = true
		arcs = append(arcs, a)
	}
	return arcs
}

// arcDegrees returns the out- and in-degree sequences of arcs on n
// nodes.
func arcDegrees(n int, arcs [][2]uint32) (out, in []int) {
	out, in = make([]int, n), make([]int, n)
	for _, a := range arcs {
		out[a[0]]++
		in[a[1]]++
	}
	return out, in
}

// connectedEdges draws a connected simple graph on n nodes: a random
// recursive tree plus distinct random edges up to m.
func connectedEdges(rng *rand.Rand, n, m int) [][2]uint32 {
	seen := make(map[[2]uint32]bool, m)
	edges := make([][2]uint32, 0, m)
	add := func(u, v int) {
		e := [2]uint32{uint32(min(u, v)), uint32(max(u, v))}
		if u != v && !seen[e] {
			seen[e] = true
			edges = append(edges, e)
		}
	}
	for v := 1; v < n; v++ {
		add(rng.IntN(v), v)
	}
	for len(edges) < m {
		add(rng.IntN(n), rng.IntN(n))
	}
	return edges
}

// edgeDegrees returns the degree sequence of undirected edges on n
// nodes.
func edgeDegrees(n int, edges [][2]uint32) []int {
	deg := make([]int, n)
	for _, e := range edges {
		deg[e[0]]++
		deg[e[1]]++
	}
	return deg
}
