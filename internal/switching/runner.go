package switching

import (
	"gesmc/internal/conc"
	"gesmc/internal/graph"
)

// Runner executes supersteps of source-independent switches in parallel
// (Algorithm 1, ParallelSuperstep), generically over the edge encoding:
// Runner[graph.Edge] is the paper's undirected kernel, Runner[digraph.Arc]
// the directed/bipartite one. It owns the concurrent edge set and the
// dependency table, both reused across supersteps; the round loop,
// pessimistic scheduler, and padded counters come from the embedded
// RoundDriver, so every instantiation gets identical scheduling and
// observability. All phases dispatch on the driver's persistent worker
// gang through function values created once at construction, so a
// steady-state superstep performs zero heap allocations (asserted by
// the allocation-regression test).
//
// Semantics refinement over the printed pseudocode (see DESIGN.md §2):
// a switch whose target coincides with one of its own source edges is
// decided illegal, matching Definition 1 exactly ("already exists in
// E"). The printed Algorithm 1 would accept such switches as no-ops;
// both choices yield the same graphs, but ours additionally makes the
// edge list bit-identical to sequential execution, which the
// differential tests exploit.
type Runner[E EdgeKind[E]] struct {
	RoundDriver

	// E is the authoritative edge (or arc) list, rewired in place.
	E   []E
	Set *conc.EdgeSet

	// Veto is the local-constraint hook of the constraint subsystem:
	// when non-nil, a switch whose (sources, targets) it reports true
	// for is decided illegal. The hook runs concurrently from every
	// worker and must be a pure function of its arguments — all four
	// are pre-superstep snapshot values, so vetoes are deterministic
	// and constrained runs stay bit-identical for every worker count.
	Veto func(e1, e2, t3, t4 E) bool

	table    *conc.DepTable
	scratch  []graph.Edge
	switches []Switch
	vetoTot  []paddedCounter

	// Phase bodies and driver hooks, created once so supersteps
	// allocate nothing.
	phase1Fn   func(worker, lo, hi int)
	eraseFn    func(worker, lo, hi int)
	insertFn   func(worker, lo, hi int)
	snapshotFn func(worker, lo, hi int)
	clearFn    func(worker, lo, hi int)
	rebuildFn  func(worker, lo, hi int)
	decideFn   Decide
	publishFn  Publish

	// Fused dispatch plans, built once; only the pass lengths mutate
	// per superstep. applyPlan runs phase 3's erase and insert on a
	// single gang wake (the erase-before-insert order is preserved by
	// the plan's sub-barrier); compactPlan collapses the three
	// compaction sweeps — snapshot, clear (with the serial counter
	// reset as its barrier hook), rebuild — into one dispatch.
	applyPlan   conc.FusedPlan
	compactPlan conc.FusedPlan
}

// NewRunner prepares a runner for edge list E, supporting supersteps of
// up to maxSwitches switches. The edge set is built in parallel with
// workers goroutines (the persistent gang owned by the embedded
// driver). Call Release when done with the runner to park the gang.
func NewRunner[E EdgeKind[E]](edges []E, maxSwitches, workers int) *Runner[E] {
	r := &Runner[E]{
		E:     edges,
		table: conc.NewDepTable(maxSwitches),
	}
	r.RoundDriver.Init(workers)
	r.Set = conc.NewEdgeSet(len(edges)*2, r.Workers())
	r.vetoTot = make([]paddedCounter, r.Workers())
	// A 1-worker gang drives the table and set from a single goroutine:
	// drop the CAS/XCHG write paths for plain stores.
	seq := r.Workers() == 1
	r.table.SetSequential(seq)
	r.Set.SetSequential(seq)
	r.pool.Blocks(len(edges), func(w, lo, hi int) {
		for _, e := range edges[lo:hi] {
			r.Set.InsertUnique(graph.Edge(e), w)
		}
	})
	r.phase1Fn = r.phase1
	r.eraseFn = r.phase3Erase
	r.insertFn = r.phase3Insert
	r.snapshotFn = r.compactSnapshot
	r.clearFn = r.compactClear
	r.rebuildFn = r.compactRebuild
	r.decideFn = r.decideItem
	r.publishFn = r.publishItem
	r.applyPlan.Passes = []conc.FusedPass{
		{Fn: r.eraseFn},
		{Fn: r.insertFn},
	}
	r.compactPlan.Passes = []conc.FusedPass{
		{Fn: r.snapshotFn},
		{Fn: r.clearFn, After: r.Set.ResetCounts},
		{Fn: r.rebuildFn},
	}
	return r
}

// Run performs one superstep: the switches must be free of source
// dependencies (each edge index appears at most once). The edge list
// and edge set are updated to the post-superstep state.
func (r *Runner[E]) Run(switches []Switch) {
	n := len(switches)
	if n == 0 {
		return
	}
	r.switches = switches
	t := r.table
	t.Reset(n)

	// Phases 1+2 on one gang wake (Algorithm 1, lines 1-35): the fused
	// dispatch runs the tuple registration sweep (keys[4k]=e1, +1=e2,
	// +2=e3, +3=e4, deterministic slots which decide() reads back) as
	// pass 0, sub-barriers, then starts the first decide round; later
	// rounds dispatch individually. Statuses publish into the
	// dependency table, the linearization point observed by dependent
	// switches.
	r.RoundDriver.Run(n, r.phase1Fn, n, r.decideFn, r.publishFn)
	for i := range r.vetoTot {
		r.Stats.Vetoed += r.vetoTot[i].v
		r.vetoTot[i].v = 0
	}

	// Phase 3: apply the accepted switches to the edge set, erasures
	// before insertions (sub-barrier) so an edge that is erased by one
	// switch and re-inserted by another nets out present.
	r.applyPlan.Passes[0].N = n
	r.applyPlan.Passes[1].N = n
	r.pool.Fused(&r.applyPlan)
	if r.Set.NeedsCompact() {
		if cap(r.scratch) < len(r.E) {
			r.scratch = make([]graph.Edge, len(r.E))
		}
		r.compactPlan.Passes[0].N = len(r.E)
		r.compactPlan.Passes[1].N = r.Set.Buckets()
		r.compactPlan.Passes[2].N = len(r.E)
		r.pool.Fused(&r.compactPlan)
	}
	r.switches = nil
}

// phase1 registers the dependency tuples of switches [lo, hi).
func (r *Runner[E]) phase1(_, lo, hi int) {
	t := r.table
	for k := lo; k < hi; k++ {
		sw := r.switches[k]
		e1 := r.E[sw.I]
		e2 := r.E[sw.J]
		t3, t4 := e1.Targets(e2, sw.G)
		t.Store(k, 0, graph.Edge(e1), conc.KindErase)
		t.Store(k, 1, graph.Edge(e2), conc.KindErase)
		t.Store(k, 2, graph.Edge(t3), conc.KindInsert)
		t.Store(k, 3, graph.Edge(t4), conc.KindInsert)
	}
}

// decideItem adapts decide to the driver's item signature.
func (r *Runner[E]) decideItem(worker int, k int32) uint32 {
	return r.decide(r.switches[k], int(k), worker)
}

// publishItem publishes a decision into the dependency table.
func (r *Runner[E]) publishItem(k int32, st uint32) {
	r.table.SetStatus(int(k), st)
}

// phase3Erase applies the accepted erasures of switches [lo, hi).
func (r *Runner[E]) phase3Erase(w, lo, hi int) {
	t := r.table
	for k := lo; k < hi; k++ {
		if t.StatusOf(k) != conc.StatusLegal {
			continue
		}
		base := 4 * k
		r.Set.EraseUnique(graph.Edge(t.Key(base)), w)
		r.Set.EraseUnique(graph.Edge(t.Key(base+1)), w)
	}
}

// phase3Insert applies the accepted insertions of switches [lo, hi).
func (r *Runner[E]) phase3Insert(w, lo, hi int) {
	t := r.table
	for k := lo; k < hi; k++ {
		if t.StatusOf(k) != conc.StatusLegal {
			continue
		}
		base := 4 * k
		r.Set.InsertUnique(graph.Edge(t.Key(base+2)), w)
		r.Set.InsertUnique(graph.Edge(t.Key(base+3)), w)
	}
}

// compactSnapshot copies the authoritative edge list into the scratch
// buffer (phase bodies cannot take parameters, so the buffer length is
// re-derived from E).
func (r *Runner[E]) compactSnapshot(_, lo, hi int) {
	s := r.scratch[:len(r.E)]
	for i := lo; i < hi; i++ {
		s[i] = graph.Edge(r.E[i])
	}
}

func (r *Runner[E]) compactClear(_, lo, hi int) {
	r.Set.ClearRange(lo, hi)
}

func (r *Runner[E]) compactRebuild(w, lo, hi int) {
	s := r.scratch[:len(r.E)]
	for i := lo; i < hi; i++ {
		r.Set.InsertUnique(s[i], w)
	}
}

// decide attempts to decide switch k (Algorithm 1, lines 10-33) and
// returns its resulting status. Legal switches rewire the edge list
// immediately; the driver publishes the status (immediately, or at the
// round barrier under the pessimistic scheduler).
func (r *Runner[E]) decide(sw Switch, k int, worker int) uint32 {
	t := r.table
	base := 4 * k
	e1 := E(t.Key(base))
	e2 := E(t.Key(base + 1))
	t3 := E(t.Key(base + 2))
	t4 := E(t.Key(base + 3))

	st := conc.StatusLegal
	if isLoop(t3) || isLoop(t4) || e1 == e2 ||
		t3 == e1 || t3 == e2 || t4 == e1 || t4 == e2 {
		// Loops, or targets equal to own sources ("already exists in
		// E" per Definition 1); e1 == e2 can only arise from a caller
		// bug but is rejected defensively.
		st = conc.StatusIllegal
	} else if r.Veto != nil && r.Veto(e1, e2, t3, t4) {
		// Local constraint veto: snapshot-determined, so the decision
		// is final in the first round and identical on every schedule.
		r.vetoTot[worker].v++
		st = conc.StatusIllegal
	} else {
		// Issue the four bucket loads the loop below depends on before
		// walking any of them: the two table chains and the two set
		// probes then overlap their leading cache misses instead of
		// serializing four memory round-trips.
		t.Touch(graph.Edge(t3))
		t.Touch(graph.Edge(t4))
		r.Set.Touch(graph.Edge(t3))
		r.Set.Touch(graph.Edge(t4))
		delay := false
		for _, target := range [2]E{t3, t4} {
			key := graph.Edge(target)
			// One chain walk answers both dependency queries: the
			// switch erasing the target and its minimum inserter.
			p, pOK, q, sq, qOK := t.Probe(key)
			if pOK {
				if p == k {
					// Own source: already handled above; unreachable.
					st = conc.StatusIllegal
					break
				}
				if k < p {
					// Erased only by a later switch: the target
					// exists at σ_k's turn (line 19, k < p).
					st = conc.StatusIllegal
					break
				}
				switch t.StatusOf(p) {
				case conc.StatusIllegal:
					// σ_p did not erase the target after all.
					st = conc.StatusIllegal
				case conc.StatusUndecided:
					delay = true // line 24
				}
				if st == conc.StatusIllegal {
					break
				}
			} else if r.Set.Contains(key) {
				// In the graph and not sourced by this superstep:
				// the implicit (e, ∞, erase, illegal) tuple.
				st = conc.StatusIllegal
				break
			}
			if qOK && q < k {
				if sq == conc.StatusLegal {
					st = conc.StatusIllegal // line 21
					break
				}
				if sq == conc.StatusUndecided {
					delay = true // line 26
				}
			}
		}
		if st != conc.StatusIllegal && delay {
			return conc.StatusUndecided // re-examined next round
		}
	}

	if st == conc.StatusLegal {
		r.E[sw.I] = t3
		r.E[sw.J] = t4
	}
	return st
}

// Accepted reports whether switch k of the superstep most recently
// executed by Run was decided legal. Valid until the next Run call
// resets the dependency table.
func (r *Runner[E]) Accepted(k int) bool {
	return r.table.StatusOf(k) == conc.StatusLegal
}

// Rollback undoes accepted switch k of the superstep most recently
// executed by Run: the source edges return to the edge list and the
// edge set, the targets are erased, and the switch is re-marked
// illegal. It is the primitive of the speculate-then-recertify mode
// for global constraints (constraint.Recertify) and must be applied in
// reverse commit order — undoing the highest accepted k first — so
// that each undo reverts exactly the last step of the equivalent
// sequential application. Single-goroutine, between supersteps only;
// the set updates count as worker 0.
func (r *Runner[E]) Rollback(k int, sw Switch) {
	t := r.table
	base := 4 * k
	e1 := E(t.Key(base))
	e2 := E(t.Key(base + 1))
	t3 := E(t.Key(base + 2))
	t4 := E(t.Key(base + 3))
	r.Set.EraseUnique(graph.Edge(t3), 0)
	r.Set.EraseUnique(graph.Edge(t4), 0)
	r.Set.InsertUnique(graph.Edge(e1), 0)
	r.Set.InsertUnique(graph.Edge(e2), 0)
	r.E[sw.I] = e1
	r.E[sw.J] = e2
	t.SetStatus(k, conc.StatusIllegal)
	r.Stats.Legal--
	r.Stats.Vetoed++
	r.Stats.RolledBack++
}
