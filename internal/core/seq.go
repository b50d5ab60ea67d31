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

// pipelineDepth is the number of in-flight switches of the §5.4-style
// software pipeline: targets and hash buckets of the next switches are
// computed (and their buckets touched) ahead of execution.
const pipelineDepth = 4

// executeSequentialPrefetch is ExecuteSequential with the bucket
// pre-touch pipeline enabled. Touching is only a memory hint — staleness
// cannot affect correctness, exactly as with hardware prefetches.
func executeSequentialPrefetch(E []graph.Edge, S *hashset.Set, switches []Switch) int64 {
	var legal int64
	n := len(switches)
	for base := 0; base < n; base += pipelineDepth {
		hi := base + pipelineDepth
		if hi > n {
			hi = n
		}
		// Stage 1: touch the buckets the upcoming switches will probe.
		for k := base; k < hi; k++ {
			sw := switches[k]
			e1, e2 := E[sw.I], E[sw.J]
			t3, t4 := graph.SwitchTargets(e1, e2, sw.G)
			S.Touch(e1)
			S.Touch(e2)
			S.Touch(t3)
			S.Touch(t4)
		}
		// Stage 2: run them for real.
		legal += ExecuteSequential(E, S, switches[base:hi])
	}
	return legal
}

// seqESStepper is the production sequential ES-MC (§5's SeqES): per
// superstep, floor(m/2) uniformly random switches executed per
// Definition 1 on the persistent edge array plus hash set.
type seqESStepper struct {
	m        int
	E        []graph.Edge
	S        *hashset.Set
	src      rng.Source
	prefetch bool
	buf      []Switch
	cons     *constrainedRuntime
}

const seqChunk = 1 << 12

func newSeqESStepper(g *graph.Graph, cfg Config, cons *constrainedRuntime) switching.Stepper {
	E := g.Edges()
	S := hashset.FromEdges(E, 0.5)
	src := rng.NewMT19937(cfg.Seed)
	if cfg.SampleViaBuckets {
		// Keep an index for write-back: position of each edge in E.
		pos := make(map[graph.Edge]int, len(E))
		for i, e := range E {
			pos[e] = i
		}
		return &seqBucketsStepper{m: g.M(), E: E, S: S, src: src, pos: pos}
	}
	if cons != nil {
		bindHashSet(cons, S)
	}
	return &seqESStepper{
		m: g.M(), E: E, S: S, src: src,
		prefetch: cfg.Prefetch,
		buf:      make([]Switch, 0, seqChunk),
		cons:     cons,
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
		switch {
		case s.cons != nil:
			s.cons.ExecuteSequential(s.E, buf, s.src, st)
		case s.prefetch:
			st.Legal += executeSequentialPrefetch(s.E, s.S, buf)
		default:
			st.Legal += ExecuteSequential(s.E, s.S, buf)
		}
		done += take
	}
	st.Attempted += perStep
	return nil
}

// seqBucketsStepper runs ES-MC sampling the two edges directly from the
// hash set by random-bucket probing (§5.3 second option). The chain is
// equivalent: a switch is an unordered pair of distinct edges plus a
// direction bit, independent of edge-list indexing; the edge array is
// still maintained only implicitly via the set.
type seqBucketsStepper struct {
	m   int
	E   []graph.Edge
	S   *hashset.Set
	src rng.Source
	pos map[graph.Edge]int
}

func (s *seqBucketsStepper) Step(st *switching.Stats) error {
	perStep := int64(s.m / 2)
	for k := int64(0); k < perStep; k++ {
		e1 := s.S.SampleBucket(s.src)
		e2 := s.S.SampleBucket(s.src)
		if e1 == e2 {
			continue // resample counts as rejection (prob 1/m)
		}
		t3, t4 := graph.SwitchTargets(e1, e2, rng.Bool(s.src))
		if t3.IsLoop() || t4.IsLoop() || s.S.Contains(t3) || s.S.Contains(t4) {
			continue
		}
		s.S.Erase(e1)
		s.S.Erase(e2)
		s.S.Insert(t3)
		s.S.Insert(t4)
		i, j := s.pos[e1], s.pos[e2]
		delete(s.pos, e1)
		delete(s.pos, e2)
		s.E[i], s.E[j] = t3, t4
		s.pos[t3], s.pos[t4] = i, j
		st.Legal++
	}
	st.Attempted += perStep
	return nil
}
