package digraph

import "gesmc/internal/constraint"

// ErrDisconnected is returned by NewEngine when the connectivity
// constraint is configured over a digraph that is not weakly connected
// (alias of the constraint package's sentinel).
var ErrDisconnected = constraint.ErrDisconnected

// ConnectedComponents returns the number of weakly connected components
// and the component label of every node — connectivity of the
// underlying undirected graph, the certificate the directed constraint
// layer checks. It mirrors graph.ConnectedComponents for digraphs.
func ConnectedComponents(g *DiGraph) (int, []int32) {
	return constraint.Components(g.n, g.arcs)
}

// constrainedRuntime is the directed instantiation of the shared
// constraint runtime. Weak connectivity falls out of the shared
// tracker directly — it unions the packed endpoints of every arc,
// which is exactly the underlying undirected graph.
type constrainedRuntime = constraint.Runtime[Arc]

func newConstrainedRuntime(g *DiGraph, spec *constraint.Spec) (*constrainedRuntime, error) {
	return constraint.NewRuntime(spec, g.N(), g.Arcs())
}
