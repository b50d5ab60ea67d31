package core

import (
	"gesmc/internal/graph"
	"gesmc/internal/switching"
)

// SuperstepRunner executes supersteps of source-independent switches in
// parallel (Algorithm 1, ParallelSuperstep). It is the undirected
// instantiation of the generic kernel in internal/switching, which owns
// the dependency-table phases, the round loop, the pessimistic
// worst-case scheduler (Theorems 2-3), and the per-worker padded
// counters; see that package and DESIGN.md for the shared machinery.
type SuperstepRunner = switching.Runner[graph.Edge]

// NewSuperstepRunner prepares a runner for graph edge list E, supporting
// supersteps of up to maxSwitches switches.
func NewSuperstepRunner(E []graph.Edge, maxSwitches, workers int) *SuperstepRunner {
	return switching.NewRunner(E, maxSwitches, workers)
}

// ExecuteGlobalParallel performs one global switch Γ = (π, ℓ) using the
// given runner. A global switch has no source dependencies by definition
// (each edge index occurs at most once in π), so it is exactly one
// ParallelSuperstep (Algorithm 3), run on the same survivor path as the
// production chain switching.GlobalStepper: π[2ℓ:] become survivors.
// This form serves the differential tests.
func ExecuteGlobalParallel(r *SuperstepRunner, perm []uint32, l int, buf []Switch) []Switch {
	buf = switching.GlobalSwitches(perm, l, buf)
	r.RunGlobal(buf, perm[2*l:])
	return buf
}
