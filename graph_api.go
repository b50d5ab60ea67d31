package gesmc

import (
	"io"

	"gesmc/internal/gen"
	"gesmc/internal/graph"
	"gesmc/internal/hashset"
	"gesmc/internal/rng"
)

// Graph is a simple undirected graph with an indexed edge list — the
// state manipulated by the switching Markov chains.
type Graph struct {
	g *graph.Graph
	// idx is the lazily built hash-set index behind HasEdge, dropped
	// whenever the edge list is mutated through this package (Sampler
	// advances).
	idx *hashset.Set
}

// NewGraph builds a graph with n nodes from (u, v) pairs. Loops,
// duplicate edges, or out-of-range endpoints are rejected.
func NewGraph(n int, edges [][2]uint32) (*Graph, error) {
	pairs := make([][2]graph.Node, len(edges))
	for i, e := range edges {
		pairs[i] = [2]graph.Node{e[0], e[1]}
	}
	g, err := graph.FromPairs(n, pairs)
	if err != nil {
		return nil, err
	}
	return &Graph{g: g}, nil
}

// FromDegrees materializes a graph with exactly the given degree
// sequence using Havel-Hakimi, or fails if the sequence is not
// graphical. The result is deterministic; draw from a Sampler over it
// to obtain an approximately uniform sample.
func FromDegrees(degrees []int) (*Graph, error) {
	g, err := gen.GraphFromSequence(degrees)
	if err != nil {
		return nil, err
	}
	return &Graph{g: g}, nil
}

// IsGraphical reports whether a simple graph with the given degree
// sequence exists (Erdős–Gallai test).
func IsGraphical(degrees []int) bool {
	return gen.ErdosGallai(degrees)
}

// GenerateGNP samples an Erdős–Rényi/Gilbert G(n, p) graph.
func GenerateGNP(n int, p float64, seed uint64) *Graph {
	return &Graph{g: gen.GNP(n, p, rng.NewMT19937(seed))}
}

// GeneratePowerLaw samples a power-law degree sequence with exponent
// gamma and degree range [1, n^{1/(gamma-1)}] (the paper's SynPld
// dataset) and realizes it with Havel-Hakimi.
func GeneratePowerLaw(n int, gamma float64, seed uint64) (*Graph, error) {
	g, err := gen.SynPldGraph(n, gamma, rng.NewMT19937(seed))
	if err != nil {
		return nil, err
	}
	return &Graph{g: g}, nil
}

// GenerateRegular returns a deterministic d-regular graph on n nodes.
func GenerateRegular(n, d int) (*Graph, error) {
	g, err := gen.Regular(n, d)
	if err != nil {
		return nil, err
	}
	return &Graph{g: g}, nil
}

// GenerateGrid returns the rows x cols grid graph.
func GenerateGrid(rows, cols int) *Graph {
	return &Graph{g: gen.Grid2D(rows, cols)}
}

// ReadGraph parses a text edge list (optionally with an "n m" header;
// comments, duplicates and loops are tolerated and cleaned, mirroring
// the paper's preprocessing of network-repository graphs).
func ReadGraph(r io.Reader) (*Graph, error) {
	g, err := graph.ReadEdgeList(r)
	if err != nil {
		return nil, err
	}
	return &Graph{g: g}, nil
}

// Write writes the graph as a text edge list with an "n m" header.
func (g *Graph) Write(w io.Writer) error {
	return graph.WriteEdgeList(w, g.g)
}

// N returns the number of nodes.
func (g *Graph) N() int { return g.g.N() }

// M returns the number of edges.
func (g *Graph) M() int { return g.g.M() }

// Degrees returns the degree sequence indexed by node.
func (g *Graph) Degrees() []int { return g.g.Degrees() }

// MaxDegree returns the largest degree.
func (g *Graph) MaxDegree() int { return g.g.MaxDegree() }

// Density returns m / C(n, 2).
func (g *Graph) Density() float64 { return g.g.Density() }

// AverageDegree returns 2m/n.
func (g *Graph) AverageDegree() float64 { return g.g.AverageDegree() }

// Edges returns a copy of the edge list as (u, v) pairs with u < v.
func (g *Graph) Edges() [][2]uint32 {
	out := make([][2]uint32, g.g.M())
	for i, e := range g.g.Edges() {
		out[i] = [2]uint32{e.U(), e.V()}
	}
	return out
}

// HasEdge reports whether the edge {u, v} exists. The first query after
// a mutation builds a hash-set index over the edge list (O(m) once);
// subsequent queries are O(1), so scanning pairs against a settled
// graph is cheap. Not safe for concurrent first use.
func (g *Graph) HasEdge(u, v uint32) bool {
	if u == v || int(u) >= g.g.N() || int(v) >= g.g.N() || g.g.M() == 0 {
		return false
	}
	if g.idx == nil {
		g.idx = hashset.FromEdges(g.g.Edges(), 0.5)
	}
	return g.idx.Contains(graph.MakeEdge(u, v))
}

// invalidate drops the HasEdge index; called by every path that mutates
// the edge list in place.
func (g *Graph) invalidate() { g.idx = nil }

// Clone returns a deep copy.
func (g *Graph) Clone() *Graph { return &Graph{g: g.g.Clone()} }

// CheckSimple verifies the simplicity invariant (useful in tests and
// pipelines that mutate graphs).
func (g *Graph) CheckSimple() error { return g.g.CheckSimple() }

// Triangles returns the number of triangles.
func (g *Graph) Triangles() int64 { return graph.Triangles(g.g) }

// ClusteringCoefficient returns the global transitivity.
func (g *Graph) ClusteringCoefficient() float64 {
	return graph.GlobalClusteringCoefficient(g.g)
}

// Assortativity returns Newman's degree assortativity r.
func (g *Graph) Assortativity() float64 { return graph.DegreeAssortativity(g.g) }

// ConnectedComponents returns the number of connected components.
func (g *Graph) ConnectedComponents() int {
	c, _ := graph.ConnectedComponents(g.g)
	return c
}

// IsConnected reports whether the graph is connected (a graph with
// isolated nodes is not; the empty graph is).
func (g *Graph) IsConnected() bool {
	return g.ConnectedComponents() <= 1
}

// LargestComponent returns the node count of the largest connected
// component and the total number of components — the usual summary of
// how far a graph is from connected. Both are 0 for an empty node set.
func (g *Graph) LargestComponent() (size, components int) {
	return graph.LargestComponent(g.g)
}

// internal accessor for sibling files.
func (g *Graph) raw() *graph.Graph { return g.g }
