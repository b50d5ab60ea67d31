package core

import (
	"errors"

	"gesmc/internal/graph"
	"gesmc/internal/hashset"
	"gesmc/internal/rng"
	"gesmc/internal/switching"
)

// ErrTooSmall is returned for graphs with fewer than two edges, on which
// no switch is defined.
var ErrTooSmall = errors.New("core: graph has fewer than 2 edges")

// ExecuteSequential performs the given switches in order on edge list E
// with edge set S, exactly following Definition 1: a switch is rejected
// iff a target is a loop or already exists in E (sources included). It
// returns the number of accepted switches. It is the reference semantics
// against which the parallel algorithms are verified.
func ExecuteSequential(E []graph.Edge, S *hashset.Set, switches []Switch) int64 {
	var legal int64
	for _, sw := range switches {
		e1 := E[sw.I]
		e2 := E[sw.J]
		t3, t4 := graph.SwitchTargets(e1, e2, sw.G)
		if t3.IsLoop() || t4.IsLoop() {
			continue
		}
		// Sources are still in S, so own-target switches (possible when
		// e1 and e2 share a node) reject here, as do genuine conflicts.
		if S.Contains(t3) || S.Contains(t4) {
			continue
		}
		S.Erase(e1)
		S.Erase(e2)
		S.Insert(t3)
		S.Insert(t4)
		E[sw.I] = t3
		E[sw.J] = t4
		legal++
	}
	return legal
}

// seqESStepper is the production sequential ES-MC (§5's SeqES): per
// superstep, floor(m/2) uniformly random switches executed per
// Definition 1 on the persistent edge array plus hash set.
type seqESStepper struct {
	m    int
	E    []graph.Edge
	S    *hashset.Set
	src  rng.Source
	buf  []Switch
	cons *constrainedRuntime
}

const seqChunk = 1 << 12

func newSeqESStepper(g *graph.Graph, cfg Config, cons *constrainedRuntime) switching.Stepper {
	E := g.Edges()
	S := hashset.FromEdges(E, 0.5)
	src := rng.NewMT19937(cfg.Seed)
	if cons != nil {
		bindHashSet(cons, S)
	}
	return &seqESStepper{
		m: g.M(), E: E, S: S, src: src,
		buf:  make([]Switch, 0, seqChunk),
		cons: cons,
	}
}

func (s *seqESStepper) Step(st *switching.Stats) error {
	perStep := int64(s.m / 2)
	for done := int64(0); done < perStep; {
		take := perStep - done
		if take > seqChunk {
			take = seqChunk
		}
		buf := s.buf[:take]
		for k := range buf {
			i, j := rng.TwoDistinct(s.src, s.m)
			buf[k] = Switch{I: uint32(i), J: uint32(j), G: rng.Bool(s.src)}
		}
		if s.cons != nil {
			s.cons.ExecuteSequential(s.E, buf, s.src, st)
		} else {
			st.Legal += ExecuteSequential(s.E, s.S, buf)
		}
		done += take
	}
	st.Attempted += perStep
	return nil
}
