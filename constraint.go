package gesmc

import (
	"fmt"

	"gesmc/internal/constraint"
	"gesmc/internal/graph"
)

// Constraint restricts the state space a Sampler draws from: instead of
// all simple graphs with the target's degree sequence, the chain
// samples only the realizations satisfying every constraint passed to
// WithConstraint. Build constraints with the package constructors —
// Connected, ForbiddenEdges, ProtectedEdges, NodeClasses.
//
// Constraints come in two tiers with different costs. Local
// constraints (ForbiddenEdges, ProtectedEdges, NodeClasses) are
// evaluated per proposed switch inside the chains — including the
// parallel superstep kernel's decide phase — and keep constrained
// parallel runs bit-identical across worker counts. The global
// connectivity constraint (Connected) is certified per superstep: the
// sequential chains consult an incremental spanning-forest certificate
// per switch, while the parallel chains apply each superstep
// optimistically and roll disconnecting switches back in reverse
// commit order. When single switches stall under the connectivity
// constraint, the chain escapes with compound k-switches (two switches
// executed atomically, allowed to pass through a disconnected
// intermediate state), keeping the constrained chain irreducible.
//
// Constrained sampling is supported by SeqES, SeqGlobalES, ParES, and
// ParGlobalES on undirected targets and by all directed algorithms;
// other algorithm choices are rejected with ErrUnsupportedConstraint.
type Constraint struct {
	kind    constraintKind
	edges   [][2]uint32
	classes []int
}

type constraintKind uint8

const (
	kindConnected constraintKind = iota + 1
	kindForbidden
	kindProtected
	kindClasses
)

// Connected constrains every sample to be a connected graph (weakly
// connected for directed targets) — the null model of motif
// significance testing on networks whose connectedness is part of the
// observed structure. The target graph must itself be connected;
// NewSampler rejects a disconnected target with ErrConstraintViolated.
func Connected() Constraint {
	return Constraint{kind: kindConnected}
}

// ForbiddenEdges constrains every sample to avoid the given edges
// ((u, v) pairs; (tail, head) for directed targets). The target must
// not contain any forbidden edge. Self-loop pairs are rejected at
// NewSampler with ErrInvalidConstraint.
func ForbiddenEdges(edges [][2]uint32) Constraint {
	return Constraint{kind: kindForbidden, edges: edges}
}

// ProtectedEdges constrains every sample to retain the given edges:
// switches that would rewire them are vetoed. Every protected edge
// must exist in the target.
func ProtectedEdges(edges [][2]uint32) Constraint {
	return Constraint{kind: kindProtected, edges: edges}
}

// NodeClasses partitions the nodes into classes (classes[v] is node
// v's label, one entry per node) and constrains every switch to
// preserve the number of edges between each pair of classes. With
// classes assigned by degree this preserves the joint degree matrix —
// the degree-class partition null model.
func NodeClasses(classes []int) Constraint {
	return Constraint{kind: kindClasses, classes: classes}
}

// compileConstraints resolves the option-level constraints against a
// target with n nodes into the internal spec, validating edge bounds,
// class-array shape, and the target's edge content (forbidden edges
// absent, protected edges present, Connected() over a connected
// start state). directed selects the arc encoding; edges are the
// target's current (packed) edges and connected reports its
// connectivity.
func compileConstraints[E ~uint64](cs []Constraint, n int, directed bool,
	edges []E, connected func() bool) (*constraint.Spec, error) {
	if len(cs) == 0 {
		return nil, nil
	}
	present := make(map[uint64]struct{}, len(edges))
	for _, e := range edges {
		present[uint64(e)] = struct{}{}
	}
	has := func(e uint64) bool { _, ok := present[e]; return ok }
	spec := &constraint.Spec{}
	for _, c := range cs {
		switch c.kind {
		case kindConnected:
			spec.Connected = true
		case kindForbidden, kindProtected:
			packed, err := packConstraintEdges(c.edges, n, directed)
			if err != nil {
				return nil, err
			}
			if c.kind == kindForbidden {
				for _, e := range packed {
					if has(e) {
						return nil, fmt.Errorf("%w: target contains forbidden edge (%d, %d)",
							ErrConstraintViolated, uint32(e>>32), uint32(e))
					}
				}
				spec.Locals = append(spec.Locals, constraint.NewForbidden(packed))
			} else {
				for _, e := range packed {
					if !has(e) {
						return nil, fmt.Errorf("%w: target is missing protected edge (%d, %d)",
							ErrConstraintViolated, uint32(e>>32), uint32(e))
					}
				}
				spec.Locals = append(spec.Locals, constraint.NewProtected(packed))
			}
		case kindClasses:
			if len(c.classes) != n {
				return nil, fmt.Errorf("%w: NodeClasses needs one class per node (got %d, n=%d)",
					ErrInvalidConstraint, len(c.classes), n)
			}
			labels := make([]int32, n)
			for i, cl := range c.classes {
				labels[i] = int32(cl)
			}
			spec.Locals = append(spec.Locals, constraint.NewClasses(labels))
		default:
			return nil, fmt.Errorf("%w: zero Constraint value", ErrInvalidConstraint)
		}
	}
	if spec.Connected && !connected() {
		return nil, fmt.Errorf("%w: Connected() requires a connected target", ErrConstraintViolated)
	}
	return spec, nil
}

// packConstraintEdges converts public (u, v) pairs to the packed
// 64-bit encoding of the selected target class, rejecting loops and
// out-of-range endpoints.
func packConstraintEdges(edges [][2]uint32, n int, directed bool) ([]uint64, error) {
	packed := make([]uint64, len(edges))
	for i, e := range edges {
		u, v := e[0], e[1]
		if u == v {
			return nil, fmt.Errorf("%w: edge (%d, %d) is a loop", ErrInvalidConstraint, u, v)
		}
		if int(u) >= n || int(v) >= n {
			return nil, fmt.Errorf("%w: edge (%d, %d) references node >= n=%d", ErrInvalidConstraint, u, v, n)
		}
		if directed {
			packed[i] = uint64(u)<<32 | uint64(v)
		} else {
			packed[i] = uint64(graph.MakeEdge(u, v))
		}
	}
	return packed, nil
}
