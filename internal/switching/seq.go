package switching

import (
	"gesmc/internal/graph"
	"gesmc/internal/hashset"
	"gesmc/internal/rng"
)

// ExecuteSequential performs the switches in order on the edge list
// with edge set S, exactly following Definition 1: a switch is rejected
// iff a target is a loop or already in the set (sources included). It
// returns the number of accepted switches. It is the reference
// semantics against which the parallel kernel is verified, for every
// edge kind: S stores each edge's 64 bits as-is, bit-cast to
// graph.Edge, exactly as the concurrent containers do.
func ExecuteSequential[E EdgeKind[E]](edges []E, S *hashset.Set, switches []Switch) int64 {
	var legal int64
	for _, sw := range switches {
		e1, e2 := edges[sw.I], edges[sw.J]
		t3, t4 := e1.Targets(e2, sw.G)
		if isLoop(t3) || isLoop(t4) {
			continue
		}
		// Sources are still in S, so own-target switches (possible when
		// e1 and e2 share a node) reject here, as do genuine conflicts.
		if S.Contains(graph.Edge(t3)) || S.Contains(graph.Edge(t4)) {
			continue
		}
		S.Erase(graph.Edge(e1))
		S.Erase(graph.Edge(e2))
		S.Insert(graph.Edge(t3))
		S.Insert(graph.Edge(t4))
		edges[sw.I], edges[sw.J] = t3, t4
		legal++
	}
	return legal
}

// GlobalSwitches converts a permutation prefix into the switch sequence
// of a global switch Γ = (π, ℓ): σ_k = (π(2k−1), π(2k), 1_{π(2k−1)<π(2k)})
// (Definition 3, 1-based; here 0-based pairs), reusing buf. Directed
// arcs ignore the direction bit, so one pairing serves every edge kind.
// Only SeqGlobalES draws its global switches this way; the parallel
// chain shuffles the edge list itself and pairs adjacent slots
// (GlobalStepper).
func GlobalSwitches(perm []uint32, l int, buf []Switch) []Switch {
	buf = buf[:0]
	for k := 0; k < l; k++ {
		i, j := perm[2*k], perm[2*k+1]
		buf = append(buf, Switch{I: i, J: j, G: i < j})
	}
	return buf
}

// SeqExecFunc executes a batch of switches in order under a constraint
// stack, adding its counters to st; src feeds the escape moves.
type SeqExecFunc[E EdgeKind[E]] func(edges []E, switches []Switch, src rng.Source, st *Stats)

// seqChunk bounds the ES-MC switches drawn before they are executed.
const seqChunk = 1 << 12

// SeqStepper is the sequential chain for any edge kind, on §5's edge
// array plus open-addressing hash set: SeqES draws ⌊m/2⌋ uniform
// switches per superstep (in chunks of seqChunk, each executed before
// the next is drawn), SeqGlobalES one global switch — a permutation of
// the edge indices and ℓ ~ Binom(⌊m/2⌋, 1−P_L) — executed in order.
// Every draw comes from one MT19937 stream seeded with the chain seed.
type SeqStepper[E EdgeKind[E]] struct {
	edges    []E
	set      *hashset.Set
	src      rng.Source
	buf      []Switch
	perm     []uint32 // G-ES-MC's permutation; nil for ES-MC
	loopProb float64
	dirBit   bool           // ES-MC draws a direction bit per switch
	exec     SeqExecFunc[E] // the constrained executor; nil without constraints
}

// NewSeqES wires the sequential ES-MC over edges. dirBit draws the
// direction bit of every switch (undirected edges); directed arcs have
// none. bind, given the stepper's hash set, returns the constrained
// executor or nil.
func NewSeqES[E EdgeKind[E]](edges []E, seed uint64, dirBit bool,
	bind func(*hashset.Set) SeqExecFunc[E]) *SeqStepper[E] {
	s := newSeqStepper(edges, seed, bind)
	s.buf = make([]Switch, 0, seqChunk)
	s.dirBit = dirBit
	return s
}

// NewSeqGlobal wires the sequential G-ES-MC over edges with loop
// probability P_L; bind is as for NewSeqES.
func NewSeqGlobal[E EdgeKind[E]](edges []E, seed uint64, loopProb float64,
	bind func(*hashset.Set) SeqExecFunc[E]) *SeqStepper[E] {
	s := newSeqStepper(edges, seed, bind)
	s.buf = make([]Switch, 0, len(edges)/2)
	s.perm = make([]uint32, len(edges))
	s.loopProb = loopProb
	return s
}

func newSeqStepper[E EdgeKind[E]](edges []E, seed uint64, bind func(*hashset.Set) SeqExecFunc[E]) *SeqStepper[E] {
	S := hashset.FromEdges(edges, 0.5)
	return &SeqStepper[E]{edges: edges, set: S, src: rng.NewMT19937(seed), exec: bind(S)}
}

// Step performs one superstep.
func (s *SeqStepper[E]) Step(st *Stats) error {
	if s.perm != nil {
		rng.PermInto(s.src, s.perm)
		l := int(rng.BinomialComplementSmall(s.src, int64(len(s.perm)/2), s.loopProb))
		s.buf = GlobalSwitches(s.perm, l, s.buf)
		s.execute(s.buf, st)
		st.Attempted += int64(l)
		return nil
	}
	m := len(s.edges)
	perStep := m / 2
	for done := 0; done < perStep; {
		buf := s.buf[:min(perStep-done, seqChunk)]
		for k := range buf {
			i, j := rng.TwoDistinct(s.src, m)
			buf[k] = Switch{I: uint32(i), J: uint32(j)}
			if s.dirBit {
				buf[k].G = rng.Bool(s.src)
			}
		}
		s.execute(buf, st)
		done += len(buf)
	}
	st.Attempted += int64(perStep)
	return nil
}

func (s *SeqStepper[E]) execute(switches []Switch, st *Stats) {
	if s.exec != nil {
		s.exec(s.edges, switches, s.src, st)
	} else {
		st.Legal += ExecuteSequential(s.edges, s.set, switches)
	}
}
