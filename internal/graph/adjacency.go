package graph

// Adjacency is a compressed sparse row (CSR) view of a graph: the
// neighborhood of node v is Nodes[Offsets[v]:Offsets[v+1]]. It is the
// representation used by the adjacency-list baselines and by the metric
// computations; switching algorithms on the hash-set representation do
// not use it.
type Adjacency struct {
	Offsets []int
	Nodes   []Node
}

// BuildAdjacency constructs the CSR adjacency of g. Each undirected edge
// appears twice (once per endpoint). Neighborhoods preserve edge-list
// order and are not sorted; call SortNeighborhoods for binary-searchable
// neighborhoods.
func BuildAdjacency(g *Graph) *Adjacency {
	n := g.N()
	deg := g.Degrees()
	offsets := make([]int, n+1)
	for v := 0; v < n; v++ {
		offsets[v+1] = offsets[v] + deg[v]
	}
	nodes := make([]Node, offsets[n])
	fill := make([]int, n)
	for _, e := range g.Edges() {
		u, v := e.Endpoints()
		nodes[offsets[u]+fill[u]] = v
		fill[u]++
		nodes[offsets[v]+fill[v]] = u
		fill[v]++
	}
	return &Adjacency{Offsets: offsets, Nodes: nodes}
}

// Neighbors returns the neighborhood slice of v.
func (a *Adjacency) Neighbors(v Node) []Node {
	return a.Nodes[a.Offsets[v]:a.Offsets[v+1]]
}

// Degree returns the degree of v.
func (a *Adjacency) Degree(v Node) int {
	return a.Offsets[v+1] - a.Offsets[v]
}

// N returns the number of nodes.
func (a *Adjacency) N() int { return len(a.Offsets) - 1 }

// SortNeighborhoods sorts every neighborhood ascending, enabling binary
// search existence queries (the "gengraph-style" baseline).
func (a *Adjacency) SortNeighborhoods() {
	for v := 0; v < a.N(); v++ {
		nb := a.Neighbors(Node(v))
		insertionSortNodes(nb)
	}
}

func insertionSortNodes(s []Node) {
	if len(s) > 48 {
		// Median-of-three quicksort for large neighborhoods, falling
		// back to insertion sort for small partitions.
		quickSortNodes(s)
		return
	}
	for i := 1; i < len(s); i++ {
		v := s[i]
		j := i - 1
		for j >= 0 && s[j] > v {
			s[j+1] = s[j]
			j--
		}
		s[j+1] = v
	}
}

func quickSortNodes(s []Node) {
	for len(s) > 48 {
		lo, hi := 0, len(s)-1
		mid := (lo + hi) / 2
		if s[mid] < s[lo] {
			s[mid], s[lo] = s[lo], s[mid]
		}
		if s[hi] < s[lo] {
			s[hi], s[lo] = s[lo], s[hi]
		}
		if s[hi] < s[mid] {
			s[hi], s[mid] = s[mid], s[hi]
		}
		pivot := s[mid]
		i, j := lo, hi
		for i <= j {
			for s[i] < pivot {
				i++
			}
			for s[j] > pivot {
				j--
			}
			if i <= j {
				s[i], s[j] = s[j], s[i]
				i++
				j--
			}
		}
		if j-lo < hi-i {
			quickSortNodes(s[lo : j+1])
			s = s[i:]
		} else {
			quickSortNodes(s[i : hi+1])
			s = s[lo : j+1]
		}
	}
	insertionSortNodes(s)
}
