// Package digraph provides simple directed graphs, one of the further
// graph classes of Carstens' taxonomy that the paper notes its findings
// adopt to directly (§1: "It is, however, straight-forward to adopt our
// findings to the other cases"): the arc type, realizations of
// prescribed degree sequences (Kleitman-Wang, bipartite) and their
// graphicality tests. A directed edge switch takes two arcs (u→v),
// (x→y) and rewires them to (u→y), (x→v), rejecting loops and parallel
// arcs; in- and out-degrees of all nodes are preserved. Arc.Targets is
// that switch; the chains themselves are compiled over arc lists by
// core.Compile. Because bipartite graphs are exactly the digraphs from
// left nodes to right nodes, the same chains randomize bipartite graphs
// with fixed degrees.
package digraph

import (
	"errors"
	"fmt"

	"gesmc/internal/graph"
	"gesmc/internal/hashset"
)

// Arc is a directed edge (u → v), packed with the tail in the high and
// the head in the low 32 bits. Unlike undirected edges there is no
// canonicalization: (u,v) and (v,u) are distinct arcs. Arcs pack their
// endpoints exactly as canonical edges do, and the switching kernel's
// tables and hash set store those 64 bits as-is, so the generic kernel
// runs over arcs unchanged.
type Arc uint64

// MakeArc returns the arc u → v.
func MakeArc(u, v graph.Node) Arc {
	return Arc(uint64(u)<<32 | uint64(v))
}

// Tail returns the source node.
func (a Arc) Tail() graph.Node { return graph.Node(a >> 32) }

// Head returns the target node.
func (a Arc) Head() graph.Node { return graph.Node(a & 0xFFFFFFFF) }

// IsLoop reports whether the arc starts and ends at the same node.
func (a Arc) IsLoop() bool { return a.Tail() == a.Head() }

// String renders the arc as "(u->v)".
func (a Arc) String() string { return fmt.Sprintf("(%d->%d)", a.Tail(), a.Head()) }

// SwitchTargets computes the directed switch of two arcs: the heads are
// exchanged, (u→v), (x→y) becoming (u→y), (x→v). There is no direction
// bit: exchanging tails instead yields the same pair of arcs with the
// roles of the two switches swapped.
func SwitchTargets(a1, a2 Arc) (Arc, Arc) {
	return MakeArc(a1.Tail(), a2.Head()), MakeArc(a2.Tail(), a1.Head())
}

// Targets is the method form of SwitchTargets satisfying the generic
// kernel's edge constraint (switching.EdgeKind). The direction bit is
// ignored: directed switches have none.
func (a Arc) Targets(other Arc, _ bool) (Arc, Arc) {
	return SwitchTargets(a, other)
}

// DiGraph is a simple directed graph (no loops, no parallel arcs) with
// an indexed arc list.
type DiGraph struct {
	n    int
	arcs []Arc
}

// ErrNotSimple is returned for arc lists with loops or duplicates.
var ErrNotSimple = errors.New("digraph: arc list is not simple")

// New validates and wraps an arc list. The slice is retained.
func New(n int, arcs []Arc) (*DiGraph, error) {
	if n < 0 || n > graph.MaxNodes {
		return nil, fmt.Errorf("digraph: node count %d out of range", n)
	}
	seen := make(map[Arc]struct{}, len(arcs))
	for _, a := range arcs {
		if int(a.Tail()) >= n || int(a.Head()) >= n {
			return nil, fmt.Errorf("digraph: arc %v out of node range", a)
		}
		if a.IsLoop() {
			return nil, fmt.Errorf("%w: loop %v", ErrNotSimple, a)
		}
		if _, dup := seen[a]; dup {
			return nil, fmt.Errorf("%w: duplicate arc %v", ErrNotSimple, a)
		}
		seen[a] = struct{}{}
	}
	return &DiGraph{n: n, arcs: arcs}, nil
}

// NewUnchecked wraps an arc list that is simple by construction.
func NewUnchecked(n int, arcs []Arc) *DiGraph { return &DiGraph{n: n, arcs: arcs} }

// FromPairs builds a digraph from (tail, head) pairs.
func FromPairs(n int, pairs [][2]graph.Node) (*DiGraph, error) {
	arcs := make([]Arc, len(pairs))
	for i, p := range pairs {
		arcs[i] = MakeArc(p[0], p[1])
	}
	return New(n, arcs)
}

// N returns the node count.
func (g *DiGraph) N() int { return g.n }

// M returns the arc count.
func (g *DiGraph) M() int { return len(g.arcs) }

// Arcs exposes the internal arc list (mutated in place by switching).
func (g *DiGraph) Arcs() []Arc { return g.arcs }

// Clone returns a deep copy.
func (g *DiGraph) Clone() *DiGraph {
	a := make([]Arc, len(g.arcs))
	copy(a, g.arcs)
	return &DiGraph{n: g.n, arcs: a}
}

// Degrees returns the out- and in-degree sequences.
func (g *DiGraph) Degrees() (out, in []int) {
	out = make([]int, g.n)
	in = make([]int, g.n)
	for _, a := range g.arcs {
		out[a.Tail()]++
		in[a.Head()]++
	}
	return out, in
}

// CheckSimple verifies the invariant.
func (g *DiGraph) CheckSimple() error {
	seen := make(map[Arc]struct{}, len(g.arcs))
	for i, a := range g.arcs {
		if a.IsLoop() {
			return fmt.Errorf("%w: loop %v at index %d", ErrNotSimple, a, i)
		}
		if _, dup := seen[a]; dup {
			return fmt.Errorf("%w: duplicate arc %v at index %d", ErrNotSimple, a, i)
		}
		seen[a] = struct{}{}
	}
	return nil
}

// SameArcSet reports whether two digraphs hold identical arc sets.
func SameArcSet(a, b *DiGraph) bool {
	if a.M() != b.M() {
		return false
	}
	set := hashset.FromEdges(a.arcs, 0.5)
	for _, x := range b.arcs {
		if !set.Contains(graph.Edge(x)) {
			return false
		}
	}
	return true
}
