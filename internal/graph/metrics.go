package graph

import "math"

// Triangles counts the triangles of g using the standard forward
// (degree-ordered) algorithm in O(m^{3/2}). Triangle counts are the
// motif statistic used by the null-model example.
func Triangles(g *Graph) int64 {
	adj := BuildAdjacency(g)
	n := g.N()
	deg := g.Degrees()
	// rank orders nodes by (degree, id); edges are oriented from lower
	// to higher rank so every triangle is counted exactly once.
	less := func(u, v Node) bool {
		if deg[u] != deg[v] {
			return deg[u] < deg[v]
		}
		return u < v
	}
	forward := make([][]Node, n)
	for v := 0; v < n; v++ {
		for _, w := range adj.Neighbors(Node(v)) {
			if less(Node(v), w) {
				forward[v] = append(forward[v], w)
			}
		}
		insertionSortNodes(forward[v])
	}
	var count int64
	for v := 0; v < n; v++ {
		fv := forward[v]
		for _, w := range fv {
			fw := forward[w]
			// Merge-intersect the two sorted forward lists.
			i, j := 0, 0
			for i < len(fv) && j < len(fw) {
				switch {
				case fv[i] < fw[j]:
					i++
				case fv[i] > fw[j]:
					j++
				default:
					count++
					i++
					j++
				}
			}
		}
	}
	return count
}

// GlobalClusteringCoefficient returns 3*triangles / #wedges (the
// transitivity of the graph), or 0 if the graph has no wedges.
func GlobalClusteringCoefficient(g *Graph) float64 {
	var wedges float64
	for _, d := range g.Degrees() {
		wedges += float64(d) * float64(d-1) / 2
	}
	if wedges == 0 {
		return 0
	}
	return 3 * float64(Triangles(g)) / wedges
}

// DegreeAssortativity returns the Pearson correlation of degrees across
// edges (Newman's assortativity coefficient r). Returns NaN for graphs
// where the variance vanishes (e.g. regular graphs).
func DegreeAssortativity(g *Graph) float64 {
	deg := g.Degrees()
	m := float64(g.M())
	if m == 0 {
		return math.NaN()
	}
	var sumProd, sumHalf, sumSqHalf float64
	for _, e := range g.Edges() {
		du := float64(deg[e.U()])
		dv := float64(deg[e.V()])
		sumProd += du * dv
		sumHalf += 0.5 * (du + dv)
		sumSqHalf += 0.5 * (du*du + dv*dv)
	}
	num := sumProd/m - (sumHalf/m)*(sumHalf/m)
	den := sumSqHalf/m - (sumHalf/m)*(sumHalf/m)
	return num / den
}

// ConnectedComponents returns the number of connected components and the
// component label of every node, via iterative DFS.
func ConnectedComponents(g *Graph) (int, []int32) {
	adj := BuildAdjacency(g)
	n := g.N()
	labels := make([]int32, n)
	for i := range labels {
		labels[i] = -1
	}
	var stack []Node
	comp := int32(0)
	for v := 0; v < n; v++ {
		if labels[v] != -1 {
			continue
		}
		stack = append(stack[:0], Node(v))
		labels[v] = comp
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, w := range adj.Neighbors(u) {
				if labels[w] == -1 {
					labels[w] = comp
					stack = append(stack, w)
				}
			}
		}
		comp++
	}
	return int(comp), labels
}

// LargestComponent returns the node count of the largest connected
// component and the total number of components (0, 0 for an empty node
// set). A graph is connected iff components <= 1.
func LargestComponent(g *Graph) (size, components int) {
	return LargestOfLabels(ConnectedComponents(g))
}

// LargestOfLabels reduces a (component count, per-node labels) pair —
// as produced by ConnectedComponents here or its weak-connectivity
// mirror in the digraph package — to the largest component's node
// count plus the component count.
func LargestOfLabels(comp int, labels []int32) (size, components int) {
	if comp == 0 {
		return 0, 0
	}
	counts := make([]int, comp)
	for _, l := range labels {
		counts[l]++
	}
	for _, c := range counts {
		if c > size {
			size = c
		}
	}
	return size, comp
}
