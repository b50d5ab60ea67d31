package core

import (
	"sync/atomic"

	"gesmc/internal/conc"
	"gesmc/internal/graph"
	"gesmc/internal/rng"
	"gesmc/internal/switching"
)

// prefixFinder locates the longest collision-free prefix of a switch
// window (Algorithm 2, lines 8-15) on a persistent worker gang. The
// scan parallelizes with a concurrent min-index table: every switch
// publishes (index -> k) with CAS-min; the boundary is the smallest k
// whose indices were first published by a smaller switch. The phase
// bodies are created once, so steady-state searches allocate nothing.
type prefixFinder struct {
	pool     *conc.Pool
	minIdx   []int32 // edge index -> smallest switch position, -1 if none
	results  []int32 // per-worker boundary candidates
	switches []Switch

	publishFn func(worker, lo, hi int)
	scanFn    func(worker, lo, hi int)
}

// newPrefixFinder prepares a finder over a graph with m edge indices,
// dispatching on the given gang (typically the runner's, so one gang
// serves the whole engine).
func newPrefixFinder(pool *conc.Pool, m int) *prefixFinder {
	minIdx := make([]int32, m)
	for i := range minIdx {
		minIdx[i] = -1
	}
	return newPrefixFinderWith(pool, minIdx)
}

// newPrefixFinderWith wires a finder over a caller-provided min-index
// table, which must be -1-initialized (one slot per edge index).
func newPrefixFinderWith(pool *conc.Pool, minIdx []int32) *prefixFinder {
	f := &prefixFinder{
		pool:    pool,
		minIdx:  minIdx,
		results: make([]int32, pool.Workers()),
	}
	f.publishFn = f.publish
	f.scanFn = f.scan
	return f
}

func casMin(slot *int32, k int32) {
	for {
		old := atomic.LoadInt32(slot)
		if old != -1 && old <= k {
			return
		}
		if atomic.CompareAndSwapInt32(slot, old, k) {
			return
		}
	}
}

func (f *prefixFinder) publish(_, lo, hi int) {
	for k := lo; k < hi; k++ {
		casMin(&f.minIdx[f.switches[k].I], int32(k))
		casMin(&f.minIdx[f.switches[k].J], int32(k))
	}
}

func (f *prefixFinder) scan(worker, lo, hi int) {
	best := f.results[worker]
	for k := lo; k < hi; k++ {
		if int32(k) >= best {
			break
		}
		if atomic.LoadInt32(&f.minIdx[f.switches[k].I]) < int32(k) ||
			atomic.LoadInt32(&f.minIdx[f.switches[k].J]) < int32(k) {
			best = int32(k)
			break
		}
	}
	f.results[worker] = best
}

// find returns the length t of the longest prefix of switches such
// that no edge index occurs twice within switches[0:t]. The returned
// prefix always contains at least one switch (a switch's own two
// indices are distinct by construction). It resets the min-index slots
// it used, so the table is clean for the next window.
func (f *prefixFinder) find(switches []Switch) int {
	n := len(switches)
	t := n
	if n > 1 {
		f.switches = switches
		f.pool.Blocks(n, f.publishFn)
		for i := range f.results {
			f.results[i] = int32(n) // workers without a block contribute "no collision"
		}
		f.pool.Blocks(n, f.scanFn)
		f.switches = nil
		for _, b := range f.results {
			if int(b) < t {
				t = int(b)
			}
		}
	}
	for _, sw := range switches {
		f.minIdx[sw.I] = -1
		f.minIdx[sw.J] = -1
	}
	return t
}

// FindCollisionFreePrefix is the one-shot form of prefixFinder over a
// transient gang, kept for tests and external callers. minIdx must
// have one -1-initialized slot per edge index; it is restored to all
// -1 before returning.
func FindCollisionFreePrefix(switches []Switch, workers int, minIdx []int32) int {
	pool := conc.NewPool(workers)
	defer pool.Close()
	return newPrefixFinderWith(pool, minIdx).find(switches)
}

// parESStepper is the production ParES (Algorithm 2): pre-sample the
// switch sequence of each superstep, then repeatedly locate the longest
// source-independent prefix (expected length Θ(√m)) and execute it with
// ParallelSuperstep. The window drains completely at every superstep
// boundary so the graph is always in the state after a whole number of
// supersteps; the decided edge list is identical to continuous
// execution because every prefix realizes sequential semantics over the
// same switch sequence. The prefix search shares the runner's worker
// gang, so the whole chain runs on one set of long-lived goroutines.
type parESStepper struct {
	m       int
	src     rng.Source
	runner  *SuperstepRunner
	finder  *prefixFinder
	pending []Switch
	window  int
	after   switching.AfterFunc[graph.Edge]
}

func newParESStepper(g *graph.Graph, cfg Config, cons *constrainedRuntime) *parESStepper {
	m := g.M()
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
	runner := newRunner(g.Edges(), window, cfg, cons)
	return &parESStepper{
		m:       m,
		src:     rng.NewMT19937(cfg.Seed),
		runner:  runner,
		finder:  newPrefixFinder(runner.Pool(), m),
		pending: make([]Switch, 0, window),
		window:  window,
		after:   cons.After(),
	}
}

func (s *parESStepper) Step(st *switching.Stats) error {
	toSample := s.m / 2
	for toSample > 0 || len(s.pending) > 0 {
		// Refill the window.
		for len(s.pending) < s.window && toSample > 0 {
			i, j := rng.TwoDistinct(s.src, s.m)
			s.pending = append(s.pending, Switch{I: uint32(i), J: uint32(j), G: rng.Bool(s.src)})
			toSample--
		}
		t := s.finder.find(s.pending)
		s.runner.Run(s.pending[:t])
		st.Attempted += int64(t)
		if s.after != nil {
			s.after(s.runner, s.pending[:t], s.src, st)
		}
		s.pending = s.pending[:copy(s.pending, s.pending[t:])]
	}
	s.runner.Flush(st)
	return nil
}

func (s *parESStepper) Release() { s.runner.Release() }

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
