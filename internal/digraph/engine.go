package digraph

import (
	"errors"

	"gesmc/internal/constraint"
	"gesmc/internal/switching"
)

// Algorithm selects a directed switching implementation. Directed
// switches need no direction bit, and ES-MC's data-structure ablations
// add nothing in the directed setting, so only three chains exist.
type Algorithm int

const (
	// AlgSeqES is the sequential directed ES-MC.
	AlgSeqES Algorithm = iota
	// AlgSeqGlobalES is the sequential directed G-ES-MC.
	AlgSeqGlobalES
	// AlgParGlobalES is the parallel directed G-ES-MC.
	AlgParGlobalES
)

// ErrUnknownAlgorithm is returned by NewEngine for an Algorithm value
// outside the defined enum.
var ErrUnknownAlgorithm = errors.New("digraph: unknown algorithm")

// Config carries the tuning knobs shared by the directed chains.
type Config struct {
	// Workers is the parallelism degree of AlgParGlobalES; zero means 1.
	Workers int
	// Seed seeds all randomness.
	Seed uint64
	// LoopProb is P_L of G-ES-MC; zero selects the default 1e-6.
	LoopProb float64
	// PessimisticRounds makes the parallel superstep publish decisions
	// only at round barriers, simulating the worst-case scheduler
	// analyzed in Theorems 2-3 (the directed mirror of core's flag,
	// inherited from the unified kernel). Results are identical; only
	// round counts change.
	PessimisticRounds bool
	// Constraint restricts the chain's state space (see the constraint
	// package): local vetoes per proposed switch, connectivity meaning
	// weak connectivity of the underlying undirected graph. All three
	// directed chains support it. Nil constrains nothing.
	Constraint *constraint.Spec
}

func (c Config) loopProb() float64 {
	if c.LoopProb <= 0 {
		return 1e-6
	}
	return c.LoopProb
}

// parGlobalSalt seeds ParGlobalES's permutation stream (seed XOR salt).
const parGlobalSalt = 0x5DEECE66D

// NewEngine compiles the digraph into the working state of the selected
// algorithm, behind the resumable engine every chain shares
// (switching.Engine). The digraph is retained and mutated in place by
// Steps; a single Steps(ctx, k) call is bit-identical to the one-shot
// SeqES/SeqGlobalES/ParGlobalES with the same parameters.
func NewEngine(g *DiGraph, alg Algorithm, cfg Config) (*switching.Engine, error) {
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
		st = switching.NewSeqES(g.Arcs(), cfg.Seed, false, cons.Sequential)
	case AlgSeqGlobalES:
		st = switching.NewSeqGlobal(g.Arcs(), cfg.Seed, cfg.loopProb(), cons.Sequential)
	case AlgParGlobalES:
		r := NewSuperstepRunner(g.Arcs(), g.M()/2, max(cfg.Workers, 1))
		r.Pessimistic = cfg.PessimisticRounds
		cons.BindRunner(r)
		st = switching.NewGlobalStepper(r, cfg.Seed, parGlobalSalt, cfg.loopProb(), cons.After())
	default:
		return nil, ErrUnknownAlgorithm
	}
	return switching.NewEngine(st), nil
}
