package digraph

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"gesmc/internal/graph"
	"gesmc/internal/rng"
)

// kleitmanWangReference is the direct form of KleitmanWang: it sorts
// every node by (residual out, residual in) before each in-degree is
// filled, at O(n log n) per node. KleitmanWang keeps that order across
// steps instead; the two must emit the same arcs in the same order and
// fail with the same error.
func kleitmanWangReference(out, in []int) ([]Arc, error) {
	n := len(out)
	a := append([]int(nil), out...)
	b := append([]int(nil), in...)
	var arcs []Arc
	order := make([]int, n)
	for i := 0; i < n; i++ {
		k := b[i]
		if k == 0 {
			continue
		}
		b[i] = 0
		for j := range order {
			order[j] = j
		}
		sort.Slice(order, func(x, y int) bool {
			jx, jy := order[x], order[y]
			if a[jx] != a[jy] {
				return a[jx] > a[jy]
			}
			if b[jx] != b[jy] {
				return b[jx] > b[jy]
			}
			return jx < jy
		})
		filled := 0
		for _, j := range order {
			if filled == k {
				break
			}
			if j == i || a[j] == 0 {
				continue
			}
			arcs = append(arcs, MakeArc(graph.Node(j), graph.Node(i)))
			a[j]--
			filled++
		}
		if filled < k {
			return nil, fmt.Errorf("digraph: bi-sequence not digraphical (node %d short %d arcs)", i, k-filled)
		}
	}
	return arcs, nil
}

// TestKleitmanWangMatchesReference compares KleitmanWang arc for arc
// with the reference on the degrees of random digraphs, whose node
// weights spread from a few hubs to many nodes with zero in- or
// out-degree (so keys tie often), and on perturbed sequences, most of
// which are not digraphical.
func TestKleitmanWangMatchesReference(t *testing.T) {
	src := rng.NewMT19937(2029)
	realized, rejected := 0, 0
	for trial := 0; trial < 300; trial++ {
		n := 2 + rng.IntN(src, 60)
		w := make([]float64, n)
		for v := range w {
			w[v] = rng.Float64(src)
			if rng.IntN(src, 4) == 0 {
				w[v] = 0
			}
		}
		w[rng.IntN(src, n)] = 3 // a hub
		var arcs []Arc
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				if u != v && rng.Float64(src) < w[u]*w[v]/2 {
					arcs = append(arcs, MakeArc(graph.Node(u), graph.Node(v)))
				}
			}
		}
		out, in := NewUnchecked(n, arcs).Degrees()
		if trial%3 == 2 {
			// Move one unit of in-degree: sums stay equal, and the
			// sequence is often no longer digraphical.
			x, y := rng.IntN(src, n), rng.IntN(src, n)
			if in[x] > 0 && in[y] < n-1 {
				in[x]--
				in[y]++
			}
		}
		want, wantErr := kleitmanWangReference(out, in)
		g, err := KleitmanWang(out, in)
		if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
			t.Fatalf("trial %d: err = %v, reference %v", trial, err, wantErr)
		}
		if err != nil {
			rejected++
			continue
		}
		realized++
		if !slices.Equal(g.Arcs(), want) {
			t.Fatalf("trial %d (n=%d): arcs differ from the reference", trial, n)
		}
	}
	if realized == 0 || rejected == 0 {
		t.Fatalf("realized %d, rejected %d: both outcomes must be covered", realized, rejected)
	}
}
