package core

import (
	"errors"

	"gesmc/internal/graph"
	"gesmc/internal/switching"
)

// ErrTooSmall is returned for graphs with fewer than two edges, on which
// no switch is defined.
var ErrTooSmall = errors.New("core: graph has fewer than 2 edges")

// ErrUnknownAlgorithm is returned by NewEngine for an Algorithm value
// outside the defined enum.
var ErrUnknownAlgorithm = errors.New("core: unknown algorithm")

// Engine is the resumable run every chain shares (switching.Engine):
// NewEngine compiles the graph once into the algorithm's stepper
// (hash set, dependency table, RNG streams), after
// which Steps advances the chain in arbitrarily many increments
// without rebuilding anything. A single Steps(ctx, k) call is
// bit-identical to the one-shot Run(g, alg, k, cfg); splitting the
// same k across several calls yields the same final edge list for
// every algorithm, because every implementation realizes sequential
// Definition-1 semantics over the same seeded switch sequence.
type Engine = switching.Engine

// RunStats is the counter type of a run (switching.Stats).
type RunStats = switching.Stats

// parGlobalSalt seeds ParGlobalES's permutation stream (seed XOR salt).
const parGlobalSalt = 0xA5A5A5A5A5A5A5A5

// NewEngine compiles the graph into the working state of the selected
// algorithm. The graph is retained and mutated in place by Steps.
func NewEngine(g *graph.Graph, alg Algorithm, cfg Config) (*Engine, error) {
	if g.M() < 2 {
		return nil, ErrTooSmall
	}
	var cons *constrainedRuntime
	if cfg.Constraint.Active() {
		var err error
		cons, err = newConstrainedRuntime(g, cfg.Constraint)
		if err != nil {
			return nil, err
		}
	}
	var st switching.Stepper
	switch alg {
	case AlgSeqES:
		st = switching.NewSeqES(g.Edges(), cfg.Seed, true, cons.Sequential)
	case AlgSeqGlobalES:
		st = switching.NewSeqGlobal(g.Edges(), cfg.Seed, cfg.loopProb(), cons.Sequential)
	case AlgParES:
		st = newParESStepper(g, cfg, cons)
	case AlgParGlobalES:
		r := newRunner(g.Edges(), g.M()/2, cfg, cons)
		st = switching.NewGlobalStepper(r, cfg.Seed, parGlobalSalt, cfg.loopProb(), cons.After())
	default:
		return nil, ErrUnknownAlgorithm
	}
	return switching.NewEngine(st), nil
}

// newRunner builds the parallel kernel for a switching chain with the
// config's scheduling knobs, bound to the constraint runtime if any.
func newRunner(edges []graph.Edge, maxSwitches int, cfg Config, cons *constrainedRuntime) *SuperstepRunner {
	r := NewSuperstepRunner(edges, maxSwitches, cfg.workers())
	r.Pessimistic = cfg.PessimisticRounds
	cons.BindRunner(r)
	return r
}
