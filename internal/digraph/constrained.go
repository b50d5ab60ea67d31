package digraph

import "gesmc/internal/constraint"

// ConnectedComponents returns the number of weakly connected components
// and the component label of every node — connectivity of the
// underlying undirected graph, the certificate the directed constraint
// layer checks. It mirrors graph.ConnectedComponents for digraphs.
func ConnectedComponents(g *DiGraph) (int, []int32) {
	return constraint.Components(g.n, g.arcs)
}
