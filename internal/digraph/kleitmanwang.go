package digraph

import (
	"fmt"
	"sort"

	"gesmc/internal/graph"
)

// KleitmanWang materializes a simple directed graph with the prescribed
// out- and in-degree sequences (Kleitman & Wang 1973, the directed
// analogue of Havel-Hakimi). At each step one node's remaining in-degree
// b_i is satisfied completely by drawing arcs from the nodes with
// lexicographically largest residual pairs (out, in) — the tie-break on
// the in-degree component is essential for the theorem to hold. Returns
// an error if the bi-sequence is not digraphical.
func KleitmanWang(out, in []int) (*DiGraph, error) {
	n := len(out)
	if len(in) != n {
		return nil, fmt.Errorf("digraph: sequence lengths differ (%d vs %d)", len(out), n)
	}
	var sumOut, sumIn int64
	for v := 0; v < n; v++ {
		if out[v] < 0 || in[v] < 0 || out[v] >= n || in[v] >= n {
			return nil, fmt.Errorf("digraph: degree out of range at node %d", v)
		}
		sumOut += int64(out[v])
		sumIn += int64(in[v])
	}
	if sumOut != sumIn {
		return nil, fmt.Errorf("digraph: out-degree sum %d != in-degree sum %d", sumOut, sumIn)
	}

	a := append([]int(nil), out...) // residual out-degrees
	b := append([]int(nil), in...)  // residual in-degrees
	arcs := make([]Arc, 0, sumOut)
	// before orders candidate sources: lexicographically largest
	// (a_j, b_j) first, ties by node index.
	before := func(x, y int) bool {
		if a[x] != a[y] {
			return a[x] > a[y]
		}
		if b[x] != b[y] {
			return b[x] > b[y]
		}
		return x < y
	}
	// order holds the nodes with residual out-degree left, sorted by
	// before. Each step changes the keys of node i and of its sources
	// only, so those few nodes move and the rest stays in place.
	var order []int
	for v := 0; v < n; v++ {
		if a[v] > 0 {
			order = append(order, v)
		}
	}
	sort.Slice(order, func(x, y int) bool { return before(order[x], order[y]) })
	var moved []int

	for i := 0; i < n; i++ {
		k := b[i]
		if k == 0 {
			continue
		}
		// b_i drops to 0. If i has out-degree left, it moves later in
		// order: close its old slot and put it in front of the first
		// node it now precedes.
		pi := sort.Search(len(order), func(t int) bool { return !before(order[t], i) })
		b[i] = 0
		if a[i] > 0 {
			q := pi + 1 + sort.Search(len(order)-pi-1, func(t int) bool { return before(i, order[pi+1+t]) })
			copy(order[pi:q-1], order[pi+1:q])
			order[q-1] = i
		}
		// The k first nodes of order other than i are the sources.
		moved = moved[:0]
		filled, p, sawI := 0, 0, false
		for ; filled < k && p < len(order); p++ {
			j := order[p]
			if j == i {
				sawI = true
				continue
			}
			arcs = append(arcs, MakeArc(graph.Node(j), graph.Node(i)))
			a[j]--
			filled++
			if a[j] > 0 {
				moved = append(moved, j)
			}
		}
		if filled < k {
			return nil, fmt.Errorf("digraph: bi-sequence not digraphical (node %d short %d arcs)", i, k-filled)
		}
		// order[:h] are the sources; i, if met, precedes the rest.
		h := p
		if sawI {
			h--
			order[h] = i
		}
		// Every source's a_j fell by one, so the sources that still
		// have out-degree left keep their relative order: merge them
		// back into order[h:], dropping the exhausted ones.
		w, r := h-len(moved), h
		for _, m := range moved {
			q := r + sort.Search(len(order)-r, func(t int) bool { return before(m, order[r+t]) })
			w += copy(order[w:], order[r:q])
			r = q
			order[w] = m
			w++
		}
		order = order[h-len(moved):]
	}
	g, err := New(n, arcs)
	if err != nil {
		return nil, fmt.Errorf("digraph: internal realization error: %w", err)
	}
	return g, nil
}
