package switching

import (
	"gesmc/internal/conc"
	"gesmc/internal/graph"
	"gesmc/internal/hashset"
)

// Runner executes supersteps of source-independent switches in parallel
// (Algorithm 1, ParallelSuperstep), generically over the edge encoding:
// Runner[graph.Edge] is the paper's undirected kernel, Runner[digraph.Arc]
// the directed/bipartite one. It owns the dependency table, reused
// across supersteps; the round loop, pessimistic scheduler, and padded
// counters come from the embedded RoundDriver, so every instantiation
// gets identical scheduling and observability.
//
// Two superstep shapes share one decide step:
//
//   - A global superstep (RunGlobal, Algorithm 3) sources every edge
//     but the few its permutation leaves unpaired, which phase 1
//     registers as survivor tuples. The dependency table then indexes
//     every edge present at superstep start, and decide reads nothing
//     else.
//   - A prefix superstep (Run, Algorithm 2) sources only Θ(√m) edges,
//     so decide looks the unsourced ones up in the edge set Set, the
//     sequential §5.2 hash set, which no one writes while decide reads
//     it.
//
// Phase 1 is three passes: registration of the tuples, then the
// dependency table's filter merge and chain link (conc.DepTable), so
// that decide walks a chain only for a target some other tuple may
// name. They run on the same gang wake as the first decide round.
//
// Phase 2, the decide rounds, only decides: it reads the table (and,
// in a prefix superstep, the set) and publishes statuses, and it
// writes no edge. Phase 3 then writes every legal switch's targets,
// which the table's arena already holds, into the edge list in one
// dispatch (commit) before Run or RunGlobal returns; a set-backed
// runner then updates the set on the leader goroutine (applySet).
//
// The set exists only where a caller needs edge membership between
// supersteps: Run builds it on first use for prefix supersteps, and
// EnsureSet builds it up front for the connectivity constraint's
// rollback and escape moves, which run on a single goroutine. A global
// superstep on a set-backed runner still decides from the table alone
// and then keeps the set in step.
// All phases dispatch on the driver's persistent worker gang through
// function values created once at construction, so a steady-state
// superstep performs zero heap allocations (asserted by the
// allocation-regression test).
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
	E []E
	// Set indexes E between supersteps; nil until the first Run or an
	// EnsureSet call, so a runner that only runs global supersteps
	// never builds it.
	Set *hashset.Set

	// Veto is the local-constraint hook of the constraint subsystem:
	// when non-nil, a switch whose (sources, targets) it reports true
	// for is decided illegal. The hook runs concurrently from every
	// worker and must be a pure function of its arguments — all four
	// are pre-superstep snapshot values, so vetoes are deterministic
	// and constrained runs stay bit-identical for every worker count.
	Veto func(e1, e2, t3, t4 E) bool

	table    *conc.DepTable
	switches []Switch
	vetoTot  []paddedCounter

	// global marks a RunGlobal superstep: rest holds the edge indices
	// its switches leave unsourced (registered as survivors), and
	// decide consults the dependency table only.
	global bool
	rest   []uint32

	// Phase bodies and driver hooks, created once so supersteps
	// allocate nothing. prologue is phase 1: the registration pass
	// (phase1), then the table's merge and link passes; only the pass
	// lengths change per superstep.
	prologue  [3]conc.FusedPass
	decideFn  Decide
	publishFn Publish
	commitFn  func(w, lo, hi int)
}

// NewRunner prepares a runner for edge list E, supporting supersteps of
// up to maxSwitches switches; a global superstep over m edges has
// ⌊m/2⌋. It builds no edge set (see EnsureSet). Call Release when done
// with the runner to park the gang.
func NewRunner[E EdgeKind[E]](edges []E, maxSwitches, workers int) *Runner[E] {
	r := &Runner[E]{E: edges}
	r.RoundDriver.Init(workers)
	r.table = conc.NewDepTable(maxSwitches, r.Workers())
	r.vetoTot = make([]paddedCounter, r.Workers())
	// A 1-worker gang drives the table from a single goroutine: drop
	// the CAS/XCHG write paths for plain stores.
	r.table.SetSequential(r.Workers() == 1)
	r.prologue[0].Fn = r.phase1
	r.decideFn = r.decide
	r.publishFn = r.publishItem
	r.commitFn = r.commit
	return r
}

// setLoad is the runner's edge-set load factor: decide probes the set
// for every target of a prefix superstep, so the runner buys shorter
// probe chains with twice the sequential chains' buckets (DESIGN §6).
const setLoad = 0.25

// EnsureSet builds the edge set over the current edge list, if the
// runner has none, and keeps it up to date from then on. Call it at a
// superstep boundary.
func (r *Runner[E]) EnsureSet() {
	if r.Set == nil {
		r.Set = hashset.FromEdges(r.E, setLoad)
	}
}

// Run performs one prefix superstep: the switches must be free of
// source dependencies (each edge index appears at most once), and the
// edges they leave unsourced are looked up in the edge set, built here
// on first use. The edge list and edge set are updated to the
// post-superstep state.
func (r *Runner[E]) Run(switches []Switch) {
	r.EnsureSet()
	r.run(switches, nil, false)
}

// RunGlobal performs one global superstep Γ = (π, ℓ): switches pair up
// π's first 2ℓ entries and rest = π[2ℓ:] holds the indices of the
// edges no switch sources, so every edge index appears exactly once in
// switches or rest. The decisions read the dependency table only; the
// edge list, and the edge set if the runner has one, are updated
// afterwards.
func (r *Runner[E]) RunGlobal(switches []Switch, rest []uint32) {
	r.run(switches, rest, true)
}

func (r *Runner[E]) run(switches []Switch, rest []uint32, global bool) {
	n := len(switches)
	if n == 0 {
		return
	}
	r.switches, r.rest, r.global = switches, rest, global
	r.table.Reset(n, len(rest))

	// Phases 1+2 on one gang wake (Algorithm 1, lines 1-35): the fused
	// dispatch runs the tuple registration sweep (keys[4k]=e1, +1=e2,
	// +2=e3, +3=e4, deterministic slots which decide() reads back,
	// followed by the survivors), the table's filter merge and chain
	// link, each after a sub-barrier, then starts the first decide
	// round; later rounds dispatch individually. Statuses publish into
	// the dependency table, the linearization point observed by
	// dependent switches.
	r.prologue[0].N = n + len(rest)
	copy(r.prologue[1:], r.table.IndexPasses())
	r.RoundDriver.Run(r.prologue[:], n, r.decideFn, r.publishFn)
	for i := range r.vetoTot {
		r.Stats.Vetoed += r.vetoTot[i].v
		r.vetoTot[i].v = 0
	}
	r.pool.Blocks(n, r.commitFn)
	if r.Set != nil {
		r.applySet(n)
	}
	r.switches, r.rest = nil, nil
}

// applySet keeps a set-backed runner's edge set in step with the
// superstep, on the leader goroutine: each legal switch, in switch
// order, erases its sources and then inserts its targets — the
// sequential application the superstep is equivalent to — so the set
// never holds more than m edges and never grows. The loop is serial,
// four set operations per accepted switch: O(√m) per prefix
// superstep, but O(m) per global superstep on a set-backed runner
// (DESIGN §3).
func (r *Runner[E]) applySet(n int) {
	t := r.table
	for k := 0; k < n; k++ {
		if t.StatusOf(k) != conc.StatusLegal {
			continue
		}
		base := 4 * k
		r.swapSet(t.Key(base), t.Key(base+1), t.Key(base+2), t.Key(base+3))
	}
}

// errSetOutOfStep is the panic of swapSet: the edge set and the edge
// list disagree, which only a broken invariant can cause.
const errSetOutOfStep = "switching: edge set out of step with the edge list"

// swapSet erases edges a and b (arena keys) from the edge set and
// inserts c and d. Each operation must change the set; one that does
// not means the set no longer mirrors E, and since prefix decisions
// trust the set for legality, it panics rather than let the two drift
// apart silently.
func (r *Runner[E]) swapSet(a, b, c, d uint64) {
	S := r.Set
	if !S.Erase(graph.Edge(a)) || !S.Erase(graph.Edge(b)) ||
		!S.Insert(graph.Edge(c)) || !S.Insert(graph.Edge(d)) {
		panic(errSetOutOfStep)
	}
}

// gatherBatch is phase 1's gather width: the edges of this many
// switches (or survivors) are loaded before any of them is registered,
// so their independent cache misses on the edge list overlap instead
// of each waiting behind the table stores of the previous switch.
const gatherBatch = 32

// phase1 registers items [lo, hi) of the superstep: the dependency
// tuples of switch k for k < n, survivor k − n after them. Each batch
// gathers its edges first and registers them in item order, so the
// arena and its registration order do not depend on the batch width.
func (r *Runner[E]) phase1(w, lo, hi int) {
	t := r.table
	n := len(r.switches)
	var a, b [gatherBatch]E
	for k0 := lo; k0 < min(hi, n); k0 += gatherBatch {
		batch := r.switches[k0:min(k0+gatherBatch, hi, n)]
		for i, sw := range batch {
			a[i], b[i] = r.E[sw.I], r.E[sw.J]
		}
		for i, sw := range batch {
			k := k0 + i
			e1, e2 := a[i], b[i]
			t3, t4 := e1.Targets(e2, sw.G)
			t.Store(w, k, 0, graph.Edge(e1), conc.KindErase)
			t.Store(w, k, 1, graph.Edge(e2), conc.KindErase)
			t.Store(w, k, 2, graph.Edge(t3), conc.KindInsert)
			t.Store(w, k, 3, graph.Edge(t4), conc.KindInsert)
		}
	}
	for j0 := max(lo, n) - n; j0 < hi-n; j0 += gatherBatch {
		batch := r.rest[j0:min(j0+gatherBatch, hi-n)]
		for i, idx := range batch {
			a[i] = r.E[idx]
		}
		for i := range batch {
			t.StoreSurvivor(w, j0+i, graph.Edge(a[i]))
		}
	}
}

// publishItem publishes a decision into the dependency table.
func (r *Runner[E]) publishItem(k int32, st uint32) {
	r.table.SetStatus(int(k), st)
}

// commit is the deferred write-back that ends every superstep: each
// legal switch k writes its targets, the arena's Key(4k+2) and
// Key(4k+3), over its sources E[sw.I] and E[sw.J]. No decision reads E
// after phase 1, so one write after the last round leaves E as
// rewiring at decision time would; the sources of a superstep are
// distinct, so the order of the writes is free.
func (r *Runner[E]) commit(_, lo, hi int) {
	t := r.table
	for k := lo; k < hi; k++ {
		if t.StatusOf(k) != conc.StatusLegal {
			continue
		}
		base := 4 * k
		sw := r.switches[k]
		r.E[sw.I], r.E[sw.J] = E(t.Key(base+2)), E(t.Key(base+3))
	}
}

// decide attempts to decide switch k (Algorithm 1, lines 10-33) from
// the dependency table (and, in a prefix superstep, the edge set) and
// returns its resulting status; the driver publishes it (immediately,
// or at the round barrier under the pessimistic scheduler). It writes
// nothing but per-worker counters: legal switches rewire the edge list
// in commit, after the last round.
func (r *Runner[E]) decide(worker int, item int32) uint32 {
	t := r.table
	k := int(item)
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
		// A target alone in its filter slot has no tuple but this
		// switch's own insert: no switch erases it, no other inserts
		// it, and in a global superstep the missing survivor tuple
		// shows it absent. Only shared targets walk a chain. Start the
		// bucket loads the loop below depends on before walking any of
		// them: the table chains then overlap their leading cache
		// misses instead of serializing the memory round-trips.
		targets := [2]E{t3, t4}
		unique := [2]bool{t.Unique(graph.Edge(t3)), t.Unique(graph.Edge(t4))}
		for i, target := range targets {
			if !unique[i] {
				t.Touch(graph.Edge(target))
			}
		}
		delay := false
		for i, target := range targets {
			key := graph.Edge(target)
			// One chain walk answers both dependency queries: the
			// switch erasing the target and its minimum inserter. A
			// unique target has neither.
			var p, q int
			var sq uint32
			var pOK, qOK bool
			if !unique[i] {
				p, pOK, q, sq, qOK = t.Probe(key)
			}
			if pOK {
				if p == k {
					// Own source: already handled above; unreachable.
					st = conc.StatusIllegal
					break
				}
				if k < p {
					// Erased only by a later switch, or a survivor
					// (p = SurvivorIdx): the target exists at σ_k's
					// turn (line 19, k < p).
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
			} else if !r.global && r.Set.Contains(key) {
				// In the graph and not sourced by this prefix
				// superstep: the implicit (e, ∞, erase, illegal)
				// tuple. A global superstep stored it as a survivor.
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

	return st
}

// Accepted reports whether switch k of the superstep most recently
// executed by Run or RunGlobal was decided legal. Valid until the next
// superstep resets the dependency table.
func (r *Runner[E]) Accepted(k int) bool {
	return r.table.StatusOf(k) == conc.StatusLegal
}

// Rollback undoes accepted switch k of the superstep most recently
// executed by Run or RunGlobal on a set-backed runner: the source edges
// return to the edge list and the edge set, the targets are erased, and
// the switch is re-marked illegal. It is the primitive of the speculate-then-recertify mode
// for global constraints (constraint.Recertify) and must be applied in
// reverse commit order — undoing the highest accepted k first — so
// that each undo reverts exactly the last step of the equivalent
// sequential application. Single-goroutine, between supersteps only.
// Like applySet it panics if the set no longer mirrors the list.
func (r *Runner[E]) Rollback(k int, sw Switch) {
	t := r.table
	base := 4 * k
	e1, e2 := t.Key(base), t.Key(base+1)
	r.swapSet(t.Key(base+2), t.Key(base+3), e1, e2)
	r.E[sw.I], r.E[sw.J] = E(e1), E(e2)
	t.SetStatus(k, conc.StatusIllegal)
	r.Stats.Legal--
	r.Stats.Vetoed++
	r.Stats.RolledBack++
}
