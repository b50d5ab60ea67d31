package switching_test

import (
	"context"
	"testing"

	"gesmc/internal/constraint"
	"gesmc/internal/core"
	"gesmc/internal/digraph"
	"gesmc/internal/gen"
	"gesmc/internal/graph"
	"gesmc/internal/switching"
)

// checkEdgeSet asserts whether the ParGlobalES engine e holds an edge
// set, and that a held set indexes all m edges both
// after compilation and after a few supersteps.
func checkEdgeSet(t *testing.T, name string, e *switching.Engine, m int, want bool) {
	t.Helper()
	defer e.Close()
	for step := 0; step < 2; step++ {
		set, ok := switching.EdgeSetOf(e)
		if !ok {
			t.Fatalf("%s: engine does not run a GlobalStepper", name)
		}
		if got := set != nil; got != want {
			t.Fatalf("%s: holds edge set %v, want %v", name, got, want)
		}
		if want && set.Len() != m {
			t.Fatalf("%s: edge set holds %d of %d edges", name, set.Len(), m)
		}
		if _, err := e.Steps(context.Background(), 3); err != nil {
			t.Fatal(err)
		}
	}
}

// TestGlobalEdgeSetOwnership: a global superstep decides from the
// dependency table alone, so an unconstrained or locally constrained
// ParGlobalES, undirected and directed, holds no edge set.
// The connectivity constraint's rollbacks and escapes need edge
// membership between supersteps and keep one.
func TestGlobalEdgeSetOwnership(t *testing.T) {
	g := gen.Grid2D(6, 6)
	forbidden := &constraint.Spec{Locals: []constraint.Local{
		constraint.NewForbidden([]uint64{uint64(g.Edges()[0])}),
	}}
	connected := &constraint.Spec{Connected: true}

	var pairs [][2]graph.Node
	for v := 0; v < 14; v++ {
		pairs = append(pairs, [2]graph.Node{graph.Node(v), graph.Node((v + 1) % 14)})
	}
	pairs = append(pairs, [2]graph.Node{0, 7})
	dg, err := digraph.FromPairs(14, pairs)
	if err != nil {
		t.Fatal(err)
	}

	for _, w := range []int{1, 2} {
		for _, c := range []struct {
			name    string
			spec    *constraint.Spec
			wantSet bool
		}{
			{"unconstrained", nil, false},
			{"forbidden", forbidden, false},
			{"connected", connected, true},
		} {
			e, err := core.NewEngine(g.Clone(), core.AlgParGlobalES, core.Config{Seed: 3, Workers: w, Constraint: c.spec})
			if err != nil {
				t.Fatal(err)
			}
			checkEdgeSet(t, "undirected/"+c.name, e, g.M(), c.wantSet)
		}
		for _, c := range []struct {
			name    string
			spec    *constraint.Spec
			wantSet bool
		}{
			{"unconstrained", nil, false},
			{"connected", connected, true},
		} {
			e, err := core.Compile(dg.N(), dg.Clone().Arcs(), core.AlgParGlobalES, core.Config{Seed: 3, Workers: w, Constraint: c.spec})
			if err != nil {
				t.Fatal(err)
			}
			checkEdgeSet(t, "directed/"+c.name, e, dg.M(), c.wantSet)
		}
	}
}
