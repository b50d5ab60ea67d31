package gesmc

import (
	"gesmc/internal/digraph"
	"gesmc/internal/graph"
)

// DiGraph is a simple directed graph (no loops, no parallel arcs) under
// degree-preserving randomization: the directed edge switch exchanges
// the heads of two arcs, preserving every node's in- and out-degree.
// The paper's global switching and its parallelization carry over
// directly (§1 of the paper; this is the "other graph classes" case).
type DiGraph struct {
	g *digraph.DiGraph
}

// NewDiGraph builds a digraph from (tail, head) pairs.
func NewDiGraph(n int, arcs [][2]uint32) (*DiGraph, error) {
	pairs := make([][2]graph.Node, len(arcs))
	for i, a := range arcs {
		pairs[i] = [2]graph.Node{a[0], a[1]}
	}
	g, err := digraph.FromPairs(n, pairs)
	if err != nil {
		return nil, err
	}
	return &DiGraph{g: g}, nil
}

// IsDigraphical reports whether a simple directed graph with the given
// out-/in-degree bi-sequence exists (Fulkerson–Chen–Anstee test, the
// directed companion of IsGraphical). Mismatched lengths,
// out-of-range degrees, or unequal sums report false.
func IsDigraphical(out, in []int) bool {
	return digraph.IsDigraphical(out, in)
}

// IsBigraphical reports whether a bipartite graph with the given
// degree sequences on the two sides exists (Gale–Ryser test, the
// bipartite companion of IsGraphical).
func IsBigraphical(left, right []int) bool {
	return digraph.IsBigraphical(left, right)
}

// FromInOutDegrees realizes a digraph with the prescribed out- and
// in-degree sequences (Kleitman-Wang), or fails if the bi-sequence is
// not digraphical.
func FromInOutDegrees(out, in []int) (*DiGraph, error) {
	g, err := digraph.KleitmanWang(out, in)
	if err != nil {
		return nil, err
	}
	return &DiGraph{g: g}, nil
}

// FromBipartiteDegrees realizes a bipartite graph with the prescribed
// degree sequences on the two sides, represented as a digraph with arcs
// from left nodes (0..len(left)-1) to right nodes (offset by the left
// side size). Directed switching preserves the bipartition, so a
// Sampler over the result samples bipartite graphs with fixed degrees.
func FromBipartiteDegrees(left, right []int) (*DiGraph, error) {
	g, err := digraph.BipartiteFromDegrees(left, right)
	if err != nil {
		return nil, err
	}
	return &DiGraph{g: g}, nil
}

// N returns the node count.
func (g *DiGraph) N() int { return g.g.N() }

// M returns the arc count.
func (g *DiGraph) M() int { return g.g.M() }

// Arcs returns a copy of the arc list as (tail, head) pairs.
func (g *DiGraph) Arcs() [][2]uint32 {
	out := make([][2]uint32, g.g.M())
	for i, a := range g.g.Arcs() {
		out[i] = [2]uint32{a.Tail(), a.Head()}
	}
	return out
}

// OutDegrees returns the out-degree sequence.
func (g *DiGraph) OutDegrees() []int {
	out, _ := g.g.Degrees()
	return out
}

// InDegrees returns the in-degree sequence.
func (g *DiGraph) InDegrees() []int {
	_, in := g.g.Degrees()
	return in
}

// ConnectedComponents returns the number of weakly connected
// components — components of the underlying undirected graph, the
// connectivity notion the directed constraint layer preserves.
func (g *DiGraph) ConnectedComponents() int {
	c, _ := digraph.ConnectedComponents(g.g)
	return c
}

// IsConnected reports whether the digraph is weakly connected.
func (g *DiGraph) IsConnected() bool {
	return g.ConnectedComponents() <= 1
}

// LargestComponent returns the node count of the largest weakly
// connected component and the total number of components.
func (g *DiGraph) LargestComponent() (size, components int) {
	return graph.LargestOfLabels(digraph.ConnectedComponents(g.g))
}

// Clone returns a deep copy.
func (g *DiGraph) Clone() *DiGraph { return &DiGraph{g: g.g.Clone()} }

// CheckSimple verifies the no-loops/no-parallel-arcs invariant.
func (g *DiGraph) CheckSimple() error { return g.g.CheckSimple() }
