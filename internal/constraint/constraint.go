// Package constraint restricts the switching Markov chains to a
// constrained state space, the null-model setting of Tabourier et al.
// ("Generating constrained random graphs using multiple edge switches")
// and Milo et al. ("On the uniform generation of random graphs with
// prescribed degree sequences"): sample uniformly not over all simple
// graphs with the prescribed degrees, but over the subset satisfying
// additional structural predicates.
//
// The package splits constraints into two tiers:
//
//   - Local constraints (Local) are pure functions of one proposed
//     switch — its two source edges and two target edges, all taken
//     from the pre-superstep snapshot. Forbidden-edge sets, protected
//     (keep-edge) masks, and degree-class partitions are local. Because
//     they depend on nothing decided concurrently, they evaluate
//     safely inside the parallel superstep kernel's decide phase, and
//     constrained parallel runs stay bit-identical to sequential
//     execution for every worker count.
//
//   - Global constraints (connectivity, via Tracker) depend on the
//     whole evolving graph. Sequential chains consult the tracker per
//     switch: a spanning-forest certificate answers most erasures in
//     O(1) (deleting only non-tree edges cannot disconnect), and a
//     union-find recheck decides switches that delete certificate tree
//     edges. Parallel chains run in speculate-then-recertify mode
//     (Recertify): a superstep's switches are applied optimistically
//     and rolled back in reverse commit order until the certificate
//     holds again.
//
// When single switches stall under the connectivity constraint — every
// proposal near the current state disconnects the graph — the chain
// escapes with a compound k-switch (Escape, k = 2 following Tabourier):
// two switches executed atomically, required to be individually simple
// and jointly connectivity-preserving, with the intermediate graph
// allowed to be disconnected. This keeps the constrained chain
// irreducible on state spaces where single switches are not.
//
// Everything is generic over the 64-bit edge encoding (endpoints packed
// 32+32), so the same machinery serves undirected edges and directed
// arcs; directed connectivity is weak connectivity (orientation
// ignored), which the packed representation gives for free.
package constraint

// Local is a snapshot-determined per-switch veto: Veto reports whether
// replacing source edges (e1, e2) by target edges (t3, t4) is
// forbidden. Implementations must be pure functions of their arguments
// (plus immutable configuration) — the parallel kernel evaluates them
// concurrently from many workers with no synchronization, and
// determinism across worker counts depends on it.
type Local interface {
	Veto(e1, e2, t3, t4 uint64) bool
}

// endpoints unpacks the two endpoints of a 64-bit edge encoding. Both
// canonical undirected edges (min, max) and directed arcs (tail, head)
// pack their endpoints in the high and low 32 bits.
func endpoints(e uint64) (uint32, uint32) {
	return uint32(e >> 32), uint32(e)
}

// Forbidden vetoes every switch whose target edges include a forbidden
// edge: graphs sampled under it never contain those edges. The caller
// must separately ensure the starting graph contains none of them.
type Forbidden struct {
	set map[uint64]struct{}
}

// NewForbidden builds the forbidden-edge constraint from packed edge
// encodings (canonicalized by the caller for undirected use).
func NewForbidden(edges []uint64) *Forbidden {
	f := &Forbidden{set: make(map[uint64]struct{}, len(edges))}
	for _, e := range edges {
		f.set[e] = struct{}{}
	}
	return f
}

// Len returns the number of forbidden edges.
func (f *Forbidden) Len() int { return len(f.set) }

// Contains reports whether e is forbidden.
func (f *Forbidden) Contains(e uint64) bool {
	_, ok := f.set[e]
	return ok
}

// Veto implements Local.
func (f *Forbidden) Veto(_, _, t3, t4 uint64) bool {
	if _, ok := f.set[t3]; ok {
		return true
	}
	_, ok := f.set[t4]
	return ok
}

// Protected vetoes every switch that would erase a protected edge:
// graphs sampled under it always contain those edges. The caller must
// separately ensure the starting graph contains all of them.
type Protected struct {
	set map[uint64]struct{}
}

// NewProtected builds the keep-edge constraint from packed encodings.
func NewProtected(edges []uint64) *Protected {
	p := &Protected{set: make(map[uint64]struct{}, len(edges))}
	for _, e := range edges {
		p.set[e] = struct{}{}
	}
	return p
}

// Len returns the number of protected edges.
func (p *Protected) Len() int { return len(p.set) }

// Contains reports whether e is protected.
func (p *Protected) Contains(e uint64) bool {
	_, ok := p.set[e]
	return ok
}

// Veto implements Local.
func (p *Protected) Veto(e1, e2, _, _ uint64) bool {
	if _, ok := p.set[e1]; ok {
		return true
	}
	_, ok := p.set[e2]
	return ok
}

// Classes vetoes switches that change the number of edges between any
// two node classes: with classes assigned by degree, the chain
// preserves the joint degree matrix (degree-class partition
// constraint). A switch replaces the class pairs of its sources by
// those of its targets; it is allowed iff the two multisets coincide.
type Classes struct {
	class []int32
}

// NewClasses builds the partition constraint; class[v] is node v's
// class label.
func NewClasses(class []int32) *Classes {
	return &Classes{class: class}
}

// pair returns the unordered class pair of edge e, packed so that
// pairs compare with ==.
func (c *Classes) pair(e uint64) uint64 {
	u, v := endpoints(e)
	a, b := c.class[u], c.class[v]
	if a > b {
		a, b = b, a
	}
	return uint64(uint32(a))<<32 | uint64(uint32(b))
}

// Veto implements Local: the class-pair multiset {t3, t4} must equal
// {e1, e2}.
func (c *Classes) Veto(e1, e2, t3, t4 uint64) bool {
	p1, p2 := c.pair(e1), c.pair(e2)
	q1, q2 := c.pair(t3), c.pair(t4)
	return !(p1 == q1 && p2 == q2 || p1 == q2 && p2 == q1)
}

// Spec bundles a constraint configuration for an engine: the local veto
// tier, whether connectivity must be preserved, and the k-switch escape
// trigger. The zero Spec constrains nothing.
type Spec struct {
	// Locals are evaluated per proposed switch; any veto rejects it.
	Locals []Local
	// Connected requires every sampled graph to be connected (weakly
	// connected for directed targets). The starting graph must be
	// connected.
	Connected bool
	// Stall is the number of consecutive connectivity rejections after
	// which the chain attempts a compound k-switch escape move; 0
	// selects DefaultStall. Only meaningful with Connected.
	//
	// Under Connected alone an undirected sequential chain practically
	// never reaches DefaultStall: where one reconnection of an edge pair
	// is simple and disconnects the graph, the other is simple and keeps
	// it connected, so each connectivity veto is matched by an equally
	// likely acceptance, and an acceptance resets the count. Directed
	// targets do stall (a directed path has no connected single switch).
	Stall int
}

// DefaultStall is the default escape trigger: this many consecutive
// connectivity vetoes mark the chain as stalled.
const DefaultStall = 32

// EscapeTries is the number of compound-switch proposals attempted per
// stall before the chain falls back to regular single switches.
const EscapeTries = 8

// StallLimit resolves the escape trigger.
func (s *Spec) StallLimit() int {
	if s.Stall > 0 {
		return s.Stall
	}
	return DefaultStall
}

// Active reports whether the spec constrains anything.
func (s *Spec) Active() bool {
	return s != nil && (len(s.Locals) > 0 || s.Connected)
}

// Veto evaluates the local tier, returning a nil function when no
// local constraints exist so hot paths can skip the call entirely.
func (s *Spec) Veto() func(e1, e2, t3, t4 uint64) bool {
	if s == nil || len(s.Locals) == 0 {
		return nil
	}
	if len(s.Locals) == 1 {
		l := s.Locals[0]
		return l.Veto
	}
	locals := s.Locals
	return func(e1, e2, t3, t4 uint64) bool {
		for _, l := range locals {
			if l.Veto(e1, e2, t3, t4) {
				return true
			}
		}
		return false
	}
}
