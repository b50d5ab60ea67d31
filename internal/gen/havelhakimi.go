package gen

import (
	"errors"
	"fmt"

	"gesmc/internal/graph"
)

// ErrNotGraphical is returned when no simple graph realizes the degree
// sequence.
var ErrNotGraphical = errors.New("gen: degree sequence is not graphical")

// ErdosGallai reports whether the degree sequence is graphical, using the
// Erdős–Gallai characterization: with the degrees sorted non-increasingly,
// the sum must be even and for every k,
// sum of the k largest degrees <= k(k-1) + sum_{i>k} min(d_i, k).
// Only the k that end a run of equal degrees need checking (Tripathi and
// Vijay 2003). Degrees must lie in [0, n), so the test walks the degree
// histogram, its one n-length allocation, in O(n) time.
func ErdosGallai(degrees []int) bool {
	n := len(degrees)
	count := make([]int, n) // count[v] = number of nodes of degree v
	var total int64
	for _, v := range degrees {
		if v < 0 || v >= n {
			return false // degrees must lie in [0, n-1]
		}
		count[v]++
		total += int64(v)
	}
	if total%2 != 0 {
		return false
	}
	// Walk the runs from the largest degree down: after the run of
	// degree v, the k nodes of degree >= v hold lhs, and the tail is
	// every node of degree < v. While k < v the tail's min(d_i, k)
	// splits at k: lo follows k, and low and lowSum count and sum the
	// degrees below lo; the n-k-low tail nodes at or above k add k each.
	// Once k >= v every tail degree is below k and adds itself.
	var k, lhs, lo, low, lowSum int64
	for v := int64(n) - 1; v >= 0; v-- {
		c := int64(count[v])
		if c == 0 {
			continue
		}
		k += c
		lhs += c * v
		rest := total - lhs
		if k < v {
			for ; lo < k; lo++ {
				low += int64(count[lo])
				lowSum += lo * int64(count[lo])
			}
			rest = lowSum + k*(int64(n)-k-low)
		}
		if lhs > k*(k-1)+rest {
			return false
		}
	}
	return true
}

// hhNode is a heap element: a node with its residual degree.
type hhNode struct {
	deg  int
	node graph.Node
}

type hhHeap []hhNode

func (h hhHeap) Len() int { return len(h) }
func (h hhHeap) Less(i, j int) bool {
	if h[i].deg != h[j].deg {
		return h[i].deg > h[j].deg // max-heap by residual degree
	}
	return h[i].node < h[j].node
}
func (h hhHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }

func (h *hhHeap) push(x hhNode) {
	*h = append(*h, x)
	i := len(*h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.Less(i, parent) {
			break
		}
		h.Swap(i, parent)
		i = parent
	}
}

func (h *hhHeap) pop() hhNode {
	top := (*h)[0]
	last := len(*h) - 1
	(*h)[0] = (*h)[last]
	*h = (*h)[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < len(*h) && h.Less(l, smallest) {
			smallest = l
		}
		if r < len(*h) && h.Less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			break
		}
		h.Swap(i, smallest)
		i = smallest
	}
	return top
}

// HavelHakimi materializes a simple graph with exactly the prescribed
// degrees (the deterministic generator of Havel 1955 / Hakimi 1962, used
// by the paper to realize SynPld sequences). It returns ErrNotGraphical
// if the sequence cannot be realized.
func HavelHakimi(degrees []int) (*graph.Graph, error) {
	n := len(degrees)
	if n > graph.MaxNodes {
		return nil, fmt.Errorf("gen: %d nodes exceed the 2^28 limit", n)
	}
	var m int64
	h := make(hhHeap, 0, n)
	for v, d := range degrees {
		if d < 0 || d >= n {
			return nil, fmt.Errorf("%w: degree %d at node %d out of range", ErrNotGraphical, d, v)
		}
		m += int64(d)
		if d > 0 {
			h.push(hhNode{deg: d, node: graph.Node(v)})
		}
	}
	if m%2 != 0 {
		return nil, fmt.Errorf("%w: odd degree sum", ErrNotGraphical)
	}
	m /= 2

	edges := make([]graph.Edge, 0, m)
	targets := make([]hhNode, 0, 64)
	for len(h) > 0 {
		v := h.pop()
		if v.deg > len(h) {
			return nil, fmt.Errorf("%w: node %d needs %d neighbors, %d available",
				ErrNotGraphical, v.node, v.deg, len(h))
		}
		targets = targets[:0]
		for i := 0; i < v.deg; i++ {
			targets = append(targets, h.pop())
		}
		for _, t := range targets {
			edges = append(edges, graph.MakeEdge(v.node, t.node))
			if t.deg > 1 {
				h.push(hhNode{deg: t.deg - 1, node: t.node})
			}
		}
	}
	return graph.NewUnchecked(n, edges), nil
}

// GraphFromSequence realizes a degree sequence, first validating it with
// Erdős–Gallai so callers get a fast, precise error for non-graphical
// input.
func GraphFromSequence(degrees []int) (*graph.Graph, error) {
	if !ErdosGallai(degrees) {
		return nil, ErrNotGraphical
	}
	return HavelHakimi(degrees)
}
