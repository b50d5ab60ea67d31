package core

import (
	"gesmc/internal/constraint"
	"gesmc/internal/graph"
)

// ErrDisconnected is returned by NewEngine when the connectivity
// constraint is configured over a graph that is not connected (alias
// of the constraint package's sentinel, so errors.Is classifies both).
var ErrDisconnected = constraint.ErrDisconnected

// constrainedRuntime is the undirected instantiation of the shared
// constraint runtime (see constraint.Runtime).
type constrainedRuntime = constraint.Runtime[graph.Edge]

func newConstrainedRuntime(g *graph.Graph, spec *constraint.Spec) (*constrainedRuntime, error) {
	return constraint.NewRuntime(spec, g.N(), g.Edges())
}
