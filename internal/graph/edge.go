// Package graph provides the graph representation shared by all edge
// switching algorithms: a canonical 64-bit edge encoding, an edge-list
// based Graph type with degree bookkeeping, CSR adjacency views, simple
// structural metrics, and text I/O.
//
// Following §5.2 of the paper, an undirected edge {u, v} with u < v is
// identified by a single 64-bit integer whose high 32 bits hold u and
// whose low 32 bits hold v. Node identifiers must fit in 28 bits
// (n ≤ 2^28). That is the paper's limit, which packs two endpoints next
// to an 8-bit lock byte; it is kept as public behaviour, although the
// edge set (internal/hashset) stores the full 64-bit encoding.
package graph

import "fmt"

// Node is a vertex identifier in [0, n).
type Node = uint32

// MaxNodes is the largest supported node count: the limit of the paper's
// implementation (§5.2), kept as public behaviour for every target.
const MaxNodes = 1 << 28

// Edge is the canonical encoding of an undirected edge {u, v}: the
// smaller endpoint in the high 32 bits, the larger one in the low 32
// bits. A loop (v, v) is representable (and used transiently when
// inspecting switch targets) but never stored in a simple graph.
type Edge uint64

// MakeEdge returns the canonical encoding of {u, v}.
func MakeEdge(u, v Node) Edge {
	if u > v {
		u, v = v, u
	}
	return Edge(uint64(u)<<32 | uint64(v))
}

// Endpoints returns the two endpoints, smaller first.
func (e Edge) Endpoints() (Node, Node) {
	return Node(e >> 32), Node(e & 0xFFFFFFFF)
}

// U returns the smaller endpoint.
func (e Edge) U() Node { return Node(e >> 32) }

// V returns the larger endpoint.
func (e Edge) V() Node { return Node(e & 0xFFFFFFFF) }

// IsLoop reports whether both endpoints coincide.
func (e Edge) IsLoop() bool { return e.U() == e.V() }

// String renders the edge as "{u,v}".
func (e Edge) String() string {
	return fmt.Sprintf("{%d,%d}", e.U(), e.V())
}

// DirectedEdge is an ordered pair of endpoints. Definition 1 of the paper
// rewires a pair of directed representations; the direction matters for
// computing switch targets but edges are always stored canonically.
type DirectedEdge struct {
	Tail, Head Node
}

// Directed returns the canonical orientation (smaller node first), the
// default orientation of the paper's Definition 1.
func (e Edge) Directed() DirectedEdge {
	return DirectedEdge{Tail: e.U(), Head: e.V()}
}

// Canonical returns the undirected canonical encoding.
func (d DirectedEdge) Canonical() Edge {
	return MakeEdge(d.Tail, d.Head)
}

// Targets computes the two target edges of the switch (e, other, g);
// it is the method form of SwitchTargets satisfying the generic
// kernel's edge constraint (switching.EdgeKind).
func (e Edge) Targets(other Edge, g bool) (Edge, Edge) {
	return SwitchTargets(e, other, g)
}

// SwitchTargets computes the two target edges of an edge switch with
// direction bit g applied to the directed representations of e1 and e2
// (the function τ of Definition 1):
//
//	g = 0:  (u,v), (x,y)  ->  (u,x), (v,y)
//	g = 1:  (u,v), (x,y)  ->  (u,y), (v,x)
//
// The results are returned canonically; either may be a loop, which the
// caller must reject.
func SwitchTargets(e1, e2 Edge, g bool) (Edge, Edge) {
	u, v := e1.Endpoints()
	x, y := e2.Endpoints()
	if g {
		return MakeEdge(u, y), MakeEdge(v, x)
	}
	return MakeEdge(u, x), MakeEdge(v, y)
}
