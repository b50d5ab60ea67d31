package core

import (
	"gesmc/internal/constraint"
	"gesmc/internal/graph"
	"gesmc/internal/hashset"
)

// ErrDisconnected is returned by NewEngine when the connectivity
// constraint is configured over a graph that is not connected (alias
// of the constraint package's sentinel, so errors.Is classifies both).
var ErrDisconnected = constraint.ErrDisconnected

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
