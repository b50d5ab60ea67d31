package graph

import (
	"math"
	"sort"
	"testing"
)

func TestTrianglesK4(t *testing.T) {
	if got := Triangles(k4(t)); got != 4 {
		t.Fatalf("K4 has %d triangles, want 4", got)
	}
}

func TestTrianglesPath(t *testing.T) {
	g := mustGraph(t, 4, [][2]Node{{0, 1}, {1, 2}, {2, 3}})
	if got := Triangles(g); got != 0 {
		t.Fatalf("path has %d triangles, want 0", got)
	}
}

func TestTrianglesBruteForceAgreement(t *testing.T) {
	// Pseudo-random graph on 20 nodes, compared against O(n^3) brute force.
	var pairs [][2]Node
	state := uint64(12345)
	next := func() uint64 {
		state = state*6364136223846793005 + 1442695040888963407
		return state >> 33
	}
	seen := map[Edge]bool{}
	for len(pairs) < 60 {
		u := Node(next() % 20)
		v := Node(next() % 20)
		if u == v {
			continue
		}
		e := MakeEdge(u, v)
		if seen[e] {
			continue
		}
		seen[e] = true
		pairs = append(pairs, [2]Node{u, v})
	}
	g := mustGraph(t, 20, pairs)
	adj := make([][20]bool, 20)
	for _, e := range g.Edges() {
		adj[e.U()][e.V()] = true
		adj[e.V()][e.U()] = true
	}
	var brute int64
	for i := 0; i < 20; i++ {
		for j := i + 1; j < 20; j++ {
			if !adj[i][j] {
				continue
			}
			for k := j + 1; k < 20; k++ {
				if adj[i][k] && adj[j][k] {
					brute++
				}
			}
		}
	}
	if got := Triangles(g); got != brute {
		t.Fatalf("Triangles = %d, brute force = %d", got, brute)
	}
}

func TestGlobalClusteringCoefficient(t *testing.T) {
	if c := GlobalClusteringCoefficient(k4(t)); math.Abs(c-1) > 1e-12 {
		t.Fatalf("K4 transitivity = %v, want 1", c)
	}
	star := mustGraph(t, 5, [][2]Node{{0, 1}, {0, 2}, {0, 3}, {0, 4}})
	if c := GlobalClusteringCoefficient(star); c != 0 {
		t.Fatalf("star transitivity = %v, want 0", c)
	}
}

func TestDegreeAssortativityStar(t *testing.T) {
	// A star is maximally disassortative: r = -1 exactly.
	star := mustGraph(t, 6, [][2]Node{{0, 1}, {0, 2}, {0, 3}, {0, 4}, {0, 5}})
	r := DegreeAssortativity(star)
	if math.Abs(r+1) > 1e-12 {
		t.Fatalf("star assortativity = %v, want -1", r)
	}
	// A path of 4 nodes has proper variance.
	path := mustGraph(t, 4, [][2]Node{{0, 1}, {1, 2}, {2, 3}})
	r = DegreeAssortativity(path)
	if math.IsNaN(r) || r > 0 {
		t.Fatalf("path assortativity = %v, want negative", r)
	}
}

func TestConnectedComponents(t *testing.T) {
	g := mustGraph(t, 7, [][2]Node{{0, 1}, {1, 2}, {3, 4}})
	count, labels := ConnectedComponents(g)
	if count != 4 { // {0,1,2}, {3,4}, {5}, {6}
		t.Fatalf("components = %d, want 4", count)
	}
	if labels[0] != labels[1] || labels[1] != labels[2] {
		t.Fatal("nodes 0,1,2 not in one component")
	}
	if labels[3] == labels[0] || labels[5] == labels[6] {
		t.Fatal("wrong component merging")
	}
}

func TestDegreeHistogram(t *testing.T) {
	g := mustGraph(t, 5, [][2]Node{{0, 1}, {1, 2}, {1, 3}})
	h := DegreeHistogram(g)
	want := []int{1, 3, 0, 1} // one deg-0 node, three deg-1, one deg-3
	if len(h) != len(want) {
		t.Fatalf("histogram length %d, want %d", len(h), len(want))
	}
	for i := range want {
		if h[i] != want[i] {
			t.Fatalf("histogram[%d] = %d, want %d", i, h[i], want[i])
		}
	}
}

func TestAdjacencyBasics(t *testing.T) {
	g := mustGraph(t, 4, [][2]Node{{0, 1}, {0, 2}, {1, 2}, {2, 3}})
	adj := BuildAdjacency(g)
	if adj.N() != 4 {
		t.Fatalf("adjacency N = %d", adj.N())
	}
	if adj.Degree(2) != 3 {
		t.Fatalf("degree(2) = %d, want 3", adj.Degree(2))
	}
	nb := append([]Node(nil), adj.Neighbors(2)...)
	sort.Slice(nb, func(i, j int) bool { return nb[i] < nb[j] })
	want := []Node{0, 1, 3}
	for i := range want {
		if nb[i] != want[i] {
			t.Fatalf("neighbors(2) = %v", nb)
		}
	}
}

func TestAdjacencySortedSearch(t *testing.T) {
	g := mustGraph(t, 6, [][2]Node{{5, 0}, {5, 2}, {5, 4}, {5, 1}, {0, 3}})
	adj := BuildAdjacency(g)
	adj.SortNeighborhoods()
	if !adj.HasEdgeSorted(5, 2) || adj.HasEdgeSorted(5, 3) {
		t.Fatal("HasEdgeSorted wrong")
	}
	if !adj.HasEdgeScan(0, 3) || adj.HasEdgeScan(0, 2) {
		t.Fatal("HasEdgeScan wrong")
	}
	nb := adj.Neighbors(5)
	for i := 1; i < len(nb); i++ {
		if nb[i-1] > nb[i] {
			t.Fatalf("neighborhood not sorted: %v", nb)
		}
	}
}

func TestQuickSortNodesLarge(t *testing.T) {
	// Exercise the quicksort path (> 48 elements) with adversarial input.
	s := make([]Node, 500)
	for i := range s {
		s[i] = Node((i * 7919) % 501)
	}
	insertionSortNodes(s) // dispatches to quicksort for large slices
	for i := 1; i < len(s); i++ {
		if s[i-1] > s[i] {
			t.Fatalf("not sorted at %d", i)
		}
	}
}

// HasEdgeSorted reports whether the sorted neighborhood of u contains v.
func (a *Adjacency) HasEdgeSorted(u, v Node) bool {
	nb := a.Neighbors(u)
	lo, hi := 0, len(nb)
	for lo < hi {
		mid := (lo + hi) / 2
		if nb[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(nb) && nb[lo] == v
}

// HasEdgeScan reports whether the (unsorted) neighborhood of u contains
// v by linear scan, the O(deg) existence check of adjacency-list ES-MC
// implementations.
func (a *Adjacency) HasEdgeScan(u, v Node) bool {
	for _, w := range a.Neighbors(u) {
		if w == v {
			return true
		}
	}
	return false
}

// DegreeHistogram returns counts[d] = number of nodes of degree d.
func DegreeHistogram(g *Graph) []int {
	deg := g.Degrees()
	max := 0
	for _, d := range deg {
		if d > max {
			max = d
		}
	}
	counts := make([]int, max+1)
	for _, d := range deg {
		counts[d]++
	}
	return counts
}
