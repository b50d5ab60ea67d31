package digraph

import (
	"context"
	"errors"
	"time"

	"gesmc/internal/switching"
)

// Switch is one directed edge switch: two arc-list indices. It is the
// kernel's switch type; the direction bit is ignored by directed chains
// (Definition 1 adapted; exchanging tails instead of heads yields the
// same unordered pair of target arcs).
type Switch = switching.Switch

// ErrTooSmall is returned for digraphs with fewer than two arcs.
var ErrTooSmall = errors.New("digraph: graph has fewer than 2 arcs")

// ExecuteSequential performs the switches in order on arc list A with
// membership set S (a map-backed set): a switch is rejected iff a target
// arc is a loop or already exists. Reference semantics for the parallel
// runner.
func ExecuteSequential(A []Arc, S map[Arc]struct{}, switches []Switch) int64 {
	var legal int64
	for _, sw := range switches {
		a1, a2 := A[sw.I], A[sw.J]
		t1, t2 := SwitchTargets(a1, a2)
		if t1.IsLoop() || t2.IsLoop() {
			continue
		}
		if _, ok := S[t1]; ok {
			continue
		}
		if _, ok := S[t2]; ok {
			continue
		}
		delete(S, a1)
		delete(S, a2)
		S[t1] = struct{}{}
		S[t2] = struct{}{}
		A[sw.I] = t1
		A[sw.J] = t2
		legal++
	}
	return legal
}

// SuperstepRunner decides batches of source-independent directed
// switches in parallel. It is the directed instantiation of the generic
// kernel in internal/switching — identical round structure, pessimistic
// scheduler, and padded counters as the undirected Algorithm 1; the arc
// type's Targets method (head exchange) is the only directed
// ingredient. Arcs pack (tail, head) in 32+32 bits exactly like
// canonical edges pack (min, max), and the conc containers store and
// compare those 64 bits as-is without canonicalizing, so the reuse is
// sound for every loop-free arc.
type SuperstepRunner = switching.Runner[Arc]

// NewSuperstepRunner prepares a runner over the arc list A.
func NewSuperstepRunner(A []Arc, maxSwitches, workers int) *SuperstepRunner {
	return switching.NewRunner(A, maxSwitches, workers)
}

// GlobalSwitches pairs a permutation prefix into directed switches.
func GlobalSwitches(perm []uint32, l int, buf []Switch) []Switch {
	buf = buf[:0]
	for k := 0; k < l; k++ {
		buf = append(buf, Switch{I: perm[2*k], J: perm[2*k+1]})
	}
	return buf
}

// run is the shared one-shot wrapper over NewEngine + Steps.
func run(g *DiGraph, alg Algorithm, supersteps int, cfg Config) (*switching.Stats, error) {
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

// ParGlobalES runs the directed G-ES-MC in parallel: per superstep a
// parallel random permutation pairs all arcs, ℓ ~ Binom(⌊m/2⌋, 1−P_L)
// switches execute as one parallel superstep. One-shot form of
// NewEngine(g, AlgParGlobalES, ...) + Steps.
func ParGlobalES(g *DiGraph, supersteps, workers int, loopProb float64, seed uint64) (*switching.Stats, error) {
	return run(g, AlgParGlobalES, supersteps, Config{Workers: workers, LoopProb: loopProb, Seed: seed})
}

// SeqGlobalES is the sequential directed G-ES-MC reference.
func SeqGlobalES(g *DiGraph, supersteps int, loopProb float64, seed uint64) (*switching.Stats, error) {
	return run(g, AlgSeqGlobalES, supersteps, Config{LoopProb: loopProb, Seed: seed})
}

// SeqES is the sequential directed ES-MC: supersteps × ⌊m/2⌋ uniform
// switches.
func SeqES(g *DiGraph, supersteps int, seed uint64) (*switching.Stats, error) {
	return run(g, AlgSeqES, supersteps, Config{Seed: seed})
}
