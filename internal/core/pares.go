package core

import (
	"gesmc/internal/constraint"
	"gesmc/internal/rng"
	"gesmc/internal/switching"
)

// prefixFinder locates the longest collision-free prefix of a switch
// window (Algorithm 2, lines 8-15) in one serial scan on the calling
// goroutine: each switch stamps its two edge indices with the search's
// epoch, and the prefix ends at the first switch that finds either
// index already stamped. Stamps of earlier searches never equal the
// current epoch, so the table needs no reset between searches. Only the
// first t+1 switches are read, which is Θ(√m) in expectation.
type prefixFinder struct {
	seen  []uint32 // edge index -> epoch of the last search that stamped it
	epoch uint32
}

// newPrefixFinder prepares a finder over a graph with m edge indices.
func newPrefixFinder(m int) *prefixFinder {
	return &prefixFinder{seen: make([]uint32, m)}
}

// find returns the length t of the longest prefix of switches such
// that no edge index occurs twice within switches[0:t]. The returned
// prefix always contains at least one switch (a switch's own two
// indices are distinct by construction).
func (f *prefixFinder) find(switches []Switch) int {
	f.epoch++
	if f.epoch == 0 { // wrapped around: drop every stale stamp once
		clear(f.seen)
		f.epoch = 1
	}
	e := f.epoch
	for k, sw := range switches {
		if f.seen[sw.I] == e || f.seen[sw.J] == e {
			return k
		}
		f.seen[sw.I] = e
		f.seen[sw.J] = e
	}
	return len(switches)
}

// FindCollisionFreePrefix is the one-shot form of prefixFinder over m
// edge indices, kept for tests and external callers.
func FindCollisionFreePrefix(switches []Switch, m int) int {
	return newPrefixFinder(m).find(switches)
}

// parESStepper is the production ParES (Algorithm 2): pre-sample the
// switch sequence of each superstep, then repeatedly locate the longest
// source-independent prefix (expected length Θ(√m)) and execute it with
// ParallelSuperstep. The window drains completely at every superstep
// boundary so the graph is always in the state after a whole number of
// supersteps; the decided edge list is identical to continuous
// execution because every prefix realizes sequential semantics over the
// same switch sequence. The prefix search is a serial scan between
// supersteps, so the whole chain runs on the runner's worker gang. Its
// switch draws are SeqES's, so the two chains are bit-identical.
type parESStepper[E switching.EdgeKind[E]] struct {
	m       int
	src     rng.Source
	runner  *switching.Runner[E]
	finder  *prefixFinder
	pending []Switch
	window  int
	dirBit  bool // draw a direction bit per switch (undirected edges)
	after   switching.AfterFunc[E]
}

func newParESStepper[E switching.EdgeKind[E]](edges []E, cfg Config, cons *constraint.Runtime[E], dirBit bool) *parESStepper[E] {
	m := len(edges)
	// Window of pre-sampled switches; refilled as prefixes are consumed.
	// Supersteps are bounded by the window, so the dependency table is
	// sized to it (expected prefix length is Θ(√m), far below m/2).
	window := 4 * isqrt(m)
	if window < 256 {
		window = 256
	}
	if window > m/2 {
		window = m / 2
	}
	runner := newRunner(edges, window, cfg, cons)
	return &parESStepper[E]{
		m:       m,
		src:     rng.NewMT19937(cfg.Seed),
		runner:  runner,
		finder:  newPrefixFinder(m),
		pending: make([]Switch, 0, window),
		window:  window,
		dirBit:  dirBit,
		after:   cons.After(),
	}
}

func (s *parESStepper[E]) Step(st *switching.Stats) error {
	toSample := s.m / 2
	for toSample > 0 || len(s.pending) > 0 {
		// Refill the window.
		for len(s.pending) < s.window && toSample > 0 {
			i, j := rng.TwoDistinct(s.src, s.m)
			sw := Switch{I: uint32(i), J: uint32(j)}
			if s.dirBit {
				sw.G = rng.Bool(s.src)
			}
			s.pending = append(s.pending, sw)
			toSample--
		}
		t := s.finder.find(s.pending)
		s.runner.Run(s.pending[:t])
		st.Attempted += int64(t)
		if s.after != nil {
			s.after(s.runner, s.src, st)
		}
		s.pending = s.pending[:copy(s.pending, s.pending[t:])]
	}
	s.runner.Flush(st)
	return nil
}

func (s *parESStepper[E]) Release() { s.runner.Release() }

func isqrt(n int) int {
	if n <= 0 {
		return 0
	}
	x := n
	y := (x + 1) / 2
	for y < x {
		x = y
		y = (x + n/x) / 2
	}
	return x
}
