package constraint

import (
	"gesmc/internal/rng"
	"gesmc/internal/switching"
)

// GraphOps is the minimal edge-set interface Escape needs to execute
// switches: membership, insertion, and erasure over the chain's
// authoritative hashset.Set (a sequential chain's own, or the parallel
// runner's), adapted with three closures built once at engine
// construction.
type GraphOps[E any] struct {
	Contains func(E) bool
	Insert   func(E)
	Erase    func(E)
}

// isLoop reports whether both endpoints of the packed edge coincide.
func isLoop[E edge64](e E) bool {
	u, v := endpoints(uint64(e))
	return u == v
}

// Escape attempts up to tries compound k-switch escape moves (k = 2,
// Tabourier's double switch): two uniformly drawn switches executed
// atomically. Each component switch must satisfy Definition-1
// simplicity against the state it sees and pass the local veto, but
// the intermediate graph may be disconnected — only the final state
// must be connected. That relaxation is exactly what restores
// irreducibility when every single switch out of the current state
// disconnects the graph.
//
// The compound proposal is symmetric (the reverse move traverses the
// same intermediate graph with the same per-switch probabilities), so
// mixing it into the constrained chain preserves the uniform
// stationary distribution over connected realizations.
//
// On success the edge list and set hold the post-escape state and the
// tracker is re-certified over it; on failure every speculative
// application has been undone and the tracker's certificate is
// untouched. Returns the number of proposals attempted and the number
// accepted (0 or 1 — Escape stops at the first accepted move).
func Escape[E switching.EdgeKind[E]](edges []E, ops GraphOps[E], veto func(e1, e2, t3, t4 E) bool,
	t *Tracker, src rng.Source, tries int) (attempts, moves int64) {
	m := len(edges)
	if m < 2 {
		return 0, 0
	}
	for try := 0; try < tries; try++ {
		attempts++
		i1, j1, a1, a2, b1, b2, ok := applySwitch(edges, ops, veto, src)
		if !ok {
			continue
		}
		i2, j2, c1, c2, d1, d2, ok := applySwitch(edges, ops, veto, src)
		if !ok {
			undoSwitch(edges, ops, i1, j1, a1, a2, b1, b2)
			continue
		}
		if Connected(t, edges) {
			Certify(t, edges)
			moves++
			return attempts, moves
		}
		undoSwitch(edges, ops, i2, j2, c1, c2, d1, d2)
		undoSwitch(edges, ops, i1, j1, a1, a2, b1, b2)
	}
	return attempts, moves
}

// applySwitch draws one uniform switch and applies it if it is simple
// and passes the local veto, returning the positions, sources, and
// targets needed to undo it.
func applySwitch[E switching.EdgeKind[E]](edges []E, ops GraphOps[E], veto func(e1, e2, t3, t4 E) bool,
	src rng.Source) (i, j int, e1, e2, t3, t4 E, ok bool) {
	i, j = rng.TwoDistinct(src, len(edges))
	g := rng.Bool(src)
	e1, e2 = edges[i], edges[j]
	t3, t4 = e1.Targets(e2, g)
	if isLoop(t3) || isLoop(t4) || t3 == e1 || t3 == e2 || t4 == e1 || t4 == e2 {
		return i, j, e1, e2, t3, t4, false
	}
	if ops.Contains(t3) || ops.Contains(t4) {
		return i, j, e1, e2, t3, t4, false
	}
	if veto != nil && veto(e1, e2, t3, t4) {
		return i, j, e1, e2, t3, t4, false
	}
	ops.Erase(e1)
	ops.Erase(e2)
	ops.Insert(t3)
	ops.Insert(t4)
	edges[i], edges[j] = t3, t4
	return i, j, e1, e2, t3, t4, true
}

// undoSwitch reverts an applied switch.
func undoSwitch[E edge64](edges []E, ops GraphOps[E], i, j int, e1, e2, t3, t4 E) {
	ops.Erase(t3)
	ops.Erase(t4)
	ops.Insert(e1)
	ops.Insert(e2)
	edges[i], edges[j] = e1, e2
}
