package core

import (
	"errors"

	"gesmc/internal/constraint"
	"gesmc/internal/graph"
	"gesmc/internal/switching"
)

// ErrTooSmall is returned for graphs with fewer than two edges, on which
// no switch is defined.
var ErrTooSmall = errors.New("core: graph has fewer than 2 edges")

// ErrUnknownAlgorithm is returned by Compile for an Algorithm value
// outside the defined enum.
var ErrUnknownAlgorithm = errors.New("core: unknown algorithm")

// Engine is the resumable run every chain shares (switching.Engine):
// Compile builds the edge list once into the algorithm's stepper
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

// The ParGlobalES permutation stream is seeded with seed XOR salt, one
// salt per edge kind.
const (
	parGlobalSaltEdge = 0xA5A5A5A5A5A5A5A5
	parGlobalSaltArc  = 0x5DEECE66D
)

// NewEngine compiles an undirected graph into the working state of the
// selected algorithm. The graph is retained and mutated in place by
// Steps.
func NewEngine(g *graph.Graph, alg Algorithm, cfg Config) (*Engine, error) {
	return Compile(g.N(), g.Edges(), alg, cfg)
}

// Compile builds the selected chain over an edge list on n nodes, for
// either edge kind: canonical undirected edges (graph.Edge) or directed
// arcs (digraph.Arc, whose switch exchanges heads). The edge list is
// retained and mutated in place by Steps. The edge kind fixes the two
// streams that differ between kinds: undirected ES-MC switches draw a
// direction bit (arcs have none), and each kind has its own ParGlobalES
// salt.
func Compile[E switching.EdgeKind[E]](n int, edges []E, alg Algorithm, cfg Config) (*Engine, error) {
	if len(edges) < 2 {
		return nil, ErrTooSmall
	}
	var zero E
	_, undirected := any(zero).(graph.Edge)
	salt := uint64(parGlobalSaltArc)
	if undirected {
		salt = parGlobalSaltEdge
	}
	var cons *constraint.Runtime[E]
	if cfg.Constraint.Active() {
		var err error
		cons, err = constraint.NewRuntime(cfg.Constraint, n, edges)
		if err != nil {
			return nil, err
		}
	}
	var st switching.Stepper
	switch alg {
	case AlgSeqES:
		st = switching.NewSeqES(edges, cfg.Seed, undirected, cons.Sequential)
	case AlgSeqGlobalES:
		st = switching.NewSeqGlobal(edges, cfg.Seed, cfg.loopProb(), cons.Sequential)
	case AlgParES:
		st = newParESStepper(edges, cfg, cons, undirected)
	case AlgParGlobalES:
		r := newRunner(edges, len(edges)/2, cfg, cons)
		st = switching.NewGlobalStepper(r, cfg.Seed, salt, cfg.loopProb(), cons.After())
	default:
		return nil, ErrUnknownAlgorithm
	}
	return switching.NewEngine(st), nil
}

// newRunner builds the parallel kernel for a switching chain with the
// config's scheduling knobs, bound to the constraint runtime if any.
func newRunner[E switching.EdgeKind[E]](edges []E, maxSwitches int, cfg Config, cons *constraint.Runtime[E]) *switching.Runner[E] {
	r := switching.NewRunner(edges, maxSwitches, cfg.workers())
	r.Pessimistic = cfg.PessimisticRounds
	cons.BindRunner(r)
	return r
}
