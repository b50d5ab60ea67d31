// Package core compiles the switching Markov chains of the paper, for
// undirected graphs (graph.Edge) and directed or bipartite graphs
// (digraph.Arc) alike:
//
//   - SeqES: fast sequential ES-MC (Definition 1) on an edge array plus
//     hash set (§5).
//   - SeqGlobalES: sequential G-ES-MC (Definition 3).
//   - ParES: the exact parallelization of ES-MC (Algorithm 2).
//   - ParGlobalES: the exact parallelization of G-ES-MC (Algorithm 3).
//   - ParallelSuperstep (Algorithm 1), shared by ParES and ParGlobalES.
//
// Compile is the one constructor for both edge kinds; NewEngine is its
// undirected entry over a *graph.Graph. The edge kind fixes the only
// two per-kind streams: undirected ES-MC switches draw a direction bit,
// and each kind has its own ParGlobalES permutation salt.
//
// The evaluation-only baselines of Table 4 (the inexact parallel chain
// of §5.1 and the adjacency-list stand-ins for NetworKit and Gengraph)
// are switching.Stepper plug-ins in cmd/experiments.
//
// All implementations mutate the edge list in place and preserve the
// degree sequence (in- and out-degrees for arcs) and simplicity. The
// parallel implementations are exact: given the same switch sequence
// they produce bit-identical edge lists to sequential Definition-1
// execution (see switching.Runner for the one documented refinement over
// the paper's pseudocode).
package core

import (
	"context"
	"time"

	"gesmc/internal/constraint"
	"gesmc/internal/graph"
	"gesmc/internal/switching"
)

// Switch is one edge switch σ = (i, j, g): two edge-list indices and a
// direction bit (Definition 1). It is the kernel's switch type; core
// re-exports it so chain implementations and tests need not import the
// kernel package.
type Switch = switching.Switch

// Algorithm selects a Markov chain implementation.
type Algorithm int

const (
	// AlgSeqES is the sequential ES-MC implementation.
	AlgSeqES Algorithm = iota
	// AlgSeqGlobalES is the sequential G-ES-MC implementation.
	AlgSeqGlobalES
	// AlgParES is the exact parallel ES-MC (Algorithm 2).
	AlgParES
	// AlgParGlobalES is the exact parallel G-ES-MC (Algorithm 3).
	AlgParGlobalES
)

// String returns the implementation name used in the paper.
func (a Algorithm) String() string {
	switch a {
	case AlgSeqES:
		return "SeqES"
	case AlgSeqGlobalES:
		return "SeqGlobalES"
	case AlgParES:
		return "ParES"
	case AlgParGlobalES:
		return "ParGlobalES"
	default:
		return "unknown"
	}
}

// DefaultLoopProb is the default loop-rejection probability P_L of
// G-ES-MC (Definition 3). It only needs to be strictly positive for
// aperiodicity; a tiny value wastes almost no switches.
const DefaultLoopProb = 1e-6

// Config carries the common tuning knobs.
type Config struct {
	// Workers is the number of goroutines for parallel algorithms
	// (P in the paper). Zero means 1.
	Workers int
	// Seed seeds all randomness; runs are deterministic per
	// (algorithm, graph, seed, workers).
	Seed uint64
	// LoopProb is P_L of G-ES-MC. Zero selects DefaultLoopProb.
	LoopProb float64
	// PessimisticRounds makes ParallelSuperstep publish decisions only
	// at round barriers, simulating the worst-case scheduler analyzed
	// in Theorems 2-3. Results are identical; only round counts change.
	// Use for round-count experiments (Fig. 9) on machines where the
	// natural scheduler resolves everything in one round.
	PessimisticRounds bool
	// Constraint restricts the chain's state space (see the constraint
	// package): local vetoes run inside the decide phase, connectivity
	// via certificate + speculate-then-recertify (weak connectivity
	// over arcs). Every algorithm supports it. Nil or a spec with
	// nothing active constrains nothing.
	Constraint *constraint.Spec
}

func (c Config) workers() int {
	if c.Workers < 1 {
		return 1
	}
	return c.Workers
}

func (c Config) loopProb() float64 {
	if c.LoopProb <= 0 {
		return DefaultLoopProb
	}
	return c.LoopProb
}

// Run executes the selected algorithm for the given number of supersteps
// (one superstep = ⌊m/2⌋ switch attempts for ES-MC chains, one global
// switch for G-ES-MC chains, matching §6.1's normalization) and returns
// statistics. The graph is randomized in place. Run is the one-shot form
// of NewEngine + Steps; callers that draw many samples from one graph
// should hold on to an Engine instead so the edge-set/adjacency state is
// built only once.
func Run(g *graph.Graph, alg Algorithm, supersteps int, cfg Config) (*RunStats, error) {
	start := time.Now()
	e, err := NewEngine(g, alg, cfg)
	if err != nil {
		return nil, err
	}
	stats, err := e.Steps(context.Background(), supersteps)
	if err != nil {
		return nil, err
	}
	stats.Duration = time.Since(start)
	return &stats, nil
}
