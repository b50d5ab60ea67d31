package core

import (
	"errors"

	"gesmc/internal/constraint"
	"gesmc/internal/graph"
	"gesmc/internal/hashset"
)

// ErrConstraintUnsupported is returned by NewEngine when a constraint
// spec is configured for an algorithm outside the constrained set
// (SeqES, SeqGlobalES, ParES, ParGlobalES).
var ErrConstraintUnsupported = errors.New("core: algorithm does not support constraints")

// ErrDisconnected is returned by NewEngine when the connectivity
// constraint is configured over a graph that is not connected (alias
// of the constraint package's sentinel, so errors.Is classifies both).
var ErrDisconnected = constraint.ErrDisconnected

// supportsConstraint reports whether the algorithm participates in the
// constraint subsystem. The naive baseline is inexact by design, the
// adjacency-list baselines use a data path without the veto hook, and
// the bucket-sampling SeqES variant is likewise excluded (checked
// separately, since it is a Config flag rather than an Algorithm).
func (a Algorithm) supportsConstraint() bool {
	switch a {
	case AlgSeqES, AlgSeqGlobalES, AlgParES, AlgParGlobalES:
		return true
	}
	return false
}

// constrainedRuntime is the undirected instantiation of the shared
// constraint runtime (see constraint.Runtime), plus the set-adapter
// bindings for the two chain families.
type constrainedRuntime = constraint.Runtime[graph.Edge]

func newConstrainedRuntime(g *graph.Graph, spec *constraint.Spec) (*constrainedRuntime, error) {
	return constraint.NewRuntime(spec, g.N(), g.Edges())
}

// bindHashSet points the runtime's graph ops at a sequential chain's
// hash set.
func bindHashSet(c *constrainedRuntime, S *hashset.Set) {
	c.Ops = constraint.GraphOps[graph.Edge]{
		Contains: S.Contains,
		Insert:   func(e graph.Edge) { S.Insert(e) },
		Erase:    func(e graph.Edge) { S.Erase(e) },
	}
}
