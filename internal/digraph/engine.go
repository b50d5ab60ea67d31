package digraph

import (
	"errors"

	"gesmc/internal/constraint"
	"gesmc/internal/rng"
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
	// Prefetch enables the §5.4 pre-touch pipeline inside the parallel
	// superstep kernel (AlgParGlobalES only; the sequential chains use
	// map-backed sets with no probe chains to pre-touch). Results are
	// bit-identical with the pipeline on or off.
	Prefetch bool
	// ChunkBytes overrides the topology-derived dynamic-chunk grain of
	// the parallel kernel's phases (AlgParGlobalES only); zero keeps
	// the cache-aware default. Results are bit-identical for any value.
	ChunkBytes int
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
	case AlgSeqES, AlgSeqGlobalES:
		S := g.ArcSet()
		if cons != nil {
			bindMap(cons, S)
		}
		st = &dirSeqStepper{
			m: g.M(), A: g.Arcs(), S: S,
			src:    rng.NewMT19937(cfg.Seed),
			global: alg == AlgSeqGlobalES,
			pl:     cfg.loopProb(),
			cons:   cons,
		}
	case AlgParGlobalES:
		r := NewSuperstepRunner(g.Arcs(), g.M()/2, max(cfg.Workers, 1))
		r.Pessimistic = cfg.PessimisticRounds
		r.Prefetch = cfg.Prefetch
		if cfg.ChunkBytes > 0 {
			r.Pool().SetChunkBytes(cfg.ChunkBytes)
		}
		if cons != nil {
			cons.BindRunner(r)
		}
		st = switching.NewGlobalStepper(r, cfg.Seed, parGlobalSalt, cfg.loopProb(), GlobalSwitches, cons.After())
	default:
		return nil, ErrUnknownAlgorithm
	}
	return switching.NewEngine(st), nil
}

// dirSeqStepper is the sequential directed chain on the map-backed
// arc set: one superstep is ⌊m/2⌋ uniform switches (ES-MC) or one
// global switch executed in order (G-ES-MC).
type dirSeqStepper struct {
	m      int
	A      []Arc
	S      map[Arc]struct{}
	src    rng.Source
	global bool
	pl     float64
	buf    []Switch
	cons   *constrainedRuntime
}

func (s *dirSeqStepper) Step(st *switching.Stats) error {
	if s.global {
		perm := rng.Perm(s.src, s.m)
		l := int(rng.BinomialComplementSmall(s.src, int64(s.m/2), s.pl))
		s.buf = GlobalSwitches(perm, l, s.buf)
		s.execute(st)
		st.Attempted += int64(l)
		return nil
	}
	perStep := int64(s.m / 2)
	for a := int64(0); a < perStep; a++ {
		i, j := rng.TwoDistinct(s.src, s.m)
		s.buf = append(s.buf[:0], Switch{I: uint32(i), J: uint32(j)})
		s.execute(st)
	}
	st.Attempted += perStep
	return nil
}

func (s *dirSeqStepper) execute(st *switching.Stats) {
	if s.cons != nil {
		s.cons.ExecuteSequential(s.A, s.buf, s.src, st)
	} else {
		st.Legal += ExecuteSequential(s.A, s.S, s.buf)
	}
}
