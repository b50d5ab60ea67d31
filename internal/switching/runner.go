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
// Two superstep shapes share one decide step and one dependency table
// layout: switch k of a superstep sources src[2k] and src[2k+1] of a
// source list src, which the table keys in place, and inserts the
// targets the table stores, ins[2k] and ins[2k+1] (conc.DepTable).
//
//   - A global superstep (RunGlobal, Algorithm 3) runs on an edge list
//     that the caller has physically shuffled: src is E itself, switch
//     k pairs E[2k] with E[2k+1], and E[2ℓ:] are survivor tuples. The
//     dependency table then indexes every edge present at superstep
//     start, and decide reads nothing else.
//   - A prefix superstep (Run, Algorithm 2) sources only Θ(√m) edges
//     at the indices its switches name: phase 1 gathers them into a
//     contiguous buffer, which is src. Decide looks the unsourced
//     edges up in the edge set Set, the sequential §5.2 hash set,
//     which no one writes while decide reads it.
//
// Phase 1 is three passes: registration of the tuples (computing and
// storing the targets, marking every key in the table's filter), then
// the dependency table's filter merge and chain link. They run on the
// same gang wake as the first decide round.
//
// Phase 2, the decide rounds, only decides: it reads the table (and,
// in a prefix superstep, the set) and publishes statuses, and it
// writes no edge. Phase 3 (commit) then exchanges every legal switch's
// sources src[2k..2k+1] with its targets ins[2k..2k+1] in one dispatch
// before Run or RunGlobal returns. In a global superstep that is a
// sequential sweep over E and the table, and it leaves the sources in
// the table, so that the set update (applySet, on the leader
// goroutine of a set-backed runner), Rollback and Recertify still
// address them; a prefix superstep also writes the targets to E at
// its switches' indices.
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

	// E is the authoritative edge (or arc) list, rewired in place. A
	// global superstep pairs its adjacent slots, so its caller may
	// replace E by a shuffled copy between supersteps.
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

	table   *conc.DepTable[E]
	vetoTot []paddedCounter

	// The latest superstep, kept until the next one for Accepted,
	// Rollback and NumSwitches: n switches, switch k sourcing
	// src[2k..2k+1] and targeting ins[2k..2k+1]. A global superstep's
	// src is E; a prefix superstep's is gather, filled from E at its
	// switches' indices.
	n           int
	src, ins    []E
	global      bool
	switches    []Switch
	gather      []E // prefix sources, allocated by the first Run
	maxSwitches int

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
// up to maxSwitches switches; a global superstep over m edges has up
// to ⌊m/2⌋. It builds no edge set (see EnsureSet). Call Release when
// done with the runner to park the gang.
func NewRunner[E EdgeKind[E]](edges []E, maxSwitches, workers int) *Runner[E] {
	r := &Runner[E]{E: edges, maxSwitches: maxSwitches}
	r.RoundDriver.Init(workers)
	// A superstep's sources are distinct edges, at most 2·maxSwitches
	// of a prefix superstep, or all m of a global one (m ≤ 2⌊m/2⌋ + 1).
	r.table = conc.NewDepTable[E](maxSwitches, min(len(edges), 2*maxSwitches+1), r.Workers())
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
// post-superstep state. The runner keeps switches until the next
// superstep, for Rollback.
func (r *Runner[E]) Run(switches []Switch) {
	r.EnsureSet()
	if r.gather == nil {
		r.gather = make([]E, min(len(r.E), 2*r.maxSwitches))
	}
	r.switches = switches
	r.run(r.gather[:2*len(switches)], len(switches), false)
}

// RunGlobal performs one global superstep of l switches on the current
// edge list, which the caller has shuffled uniformly: switch k pairs
// E[2k] with E[2k+1] and has the direction bit 1_{E[2k] < E[2k+1]}, and
// E[2l:] are survivors. The decisions read the dependency table only;
// the edge list, and the edge set if the runner has one, are updated
// afterwards, each legal switch's targets taking its sources' slots.
func (r *Runner[E]) RunGlobal(l int) {
	r.switches = nil
	r.run(r.E, l, true)
}

func (r *Runner[E]) run(src []E, n int, global bool) {
	r.n = n
	if n == 0 {
		return
	}
	r.src, r.global = src, global
	r.table.Reset(src, n)
	r.ins = r.table.Inserts()

	// Phases 1+2 on one gang wake (Algorithm 1, lines 1-35): the fused
	// dispatch runs the registration sweep over the switches, then the
	// survivors, the table's filter merge and chain link, each after a
	// sub-barrier, then starts the first decide round; later rounds
	// dispatch individually. Statuses publish into the dependency
	// table, the linearization point observed by dependent switches.
	r.prologue[0].N = len(src) - n
	copy(r.prologue[1:], r.table.IndexPasses())
	r.RoundDriver.Run(r.prologue[:], n, r.decideFn, r.publishFn)
	for i := range r.vetoTot {
		r.Stats.Vetoed += r.vetoTot[i].v
		r.vetoTot[i].v = 0
	}
	r.pool.Blocks(n, r.commitFn)
	if r.Set != nil {
		r.applySet()
	}
}

// applySet keeps a set-backed runner's edge set in step with the
// superstep, on the leader goroutine: each legal switch, in switch
// order, erases its sources and then inserts its targets — the
// sequential application the superstep is equivalent to — so the set
// never holds more than m edges and never grows. The loop is serial,
// four set operations per accepted switch: O(√m) per prefix
// superstep, but O(m) per global superstep on a set-backed runner
// (DESIGN §3). It runs after commit, which moved the sources of a
// legal switch to ins and its targets to src.
func (r *Runner[E]) applySet() {
	for k := 0; k < r.n; k++ {
		if r.table.StatusOf(k) != conc.StatusLegal {
			continue
		}
		i := 2 * k
		r.swapSet(r.ins[i], r.ins[i+1], r.src[i], r.src[i+1])
	}
}

// errSetOutOfStep is the panic of swapSet: the edge set and the edge
// list disagree, which only a broken invariant can cause.
const errSetOutOfStep = "switching: edge set out of step with the edge list"

// swapSet erases edges a and b from the edge set and inserts c and d.
// Each operation must change the set; one that does not means the set
// no longer mirrors E, and since prefix decisions trust the set for
// legality, it panics rather than let the two drift apart silently.
func (r *Runner[E]) swapSet(a, b, c, d E) {
	S := r.Set
	if !S.Erase(graph.Edge(a)) || !S.Erase(graph.Edge(b)) ||
		!S.Insert(graph.Edge(c)) || !S.Insert(graph.Edge(d)) {
		panic(errSetOutOfStep)
	}
}

// gatherBatch is phase 1's gather width in a prefix superstep: the
// sources of this many switches are loaded from E before any of them
// is registered, so their independent cache misses on the edge list
// overlap instead of each waiting behind the table stores of the
// previous switch.
const gatherBatch = 32

// phase1 registers items [lo, hi) of the superstep: switch k for
// k < n — its targets computed into ins and its four keys marked —
// and survivor src[n+k] for k ≥ n. A prefix superstep first gathers
// each batch's sources into src. The direction bit of a global switch
// is the order of its two edges: the shuffle makes the order inside a
// pair a fair coin independent of the pair (DESIGN §2).
func (r *Runner[E]) phase1(w, lo, hi int) {
	t := r.table
	src, ins, n := r.src, r.ins, r.n
	for k0 := lo; k0 < min(hi, n); k0 += gatherBatch {
		k1 := min(k0+gatherBatch, hi, n)
		if !r.global {
			for k, sw := range r.switches[k0:k1] {
				i := 2 * (k0 + k)
				src[i], src[i+1] = r.E[sw.I], r.E[sw.J]
			}
		}
		for k := k0; k < k1; k++ {
			e1, e2 := src[2*k], src[2*k+1]
			g := e1 < e2
			if !r.global {
				g = r.switches[k].G
			}
			t3, t4 := e1.Targets(e2, g)
			ins[2*k], ins[2*k+1] = t3, t4
			t.Mark(w, e1)
			t.Mark(w, e2)
			t.Mark(w, t3)
			t.Mark(w, t4)
		}
	}
	if hi > n {
		for _, e := range src[n+max(lo, n) : n+hi] {
			t.Mark(w, e)
		}
	}
}

// publishItem publishes a decision into the dependency table.
func (r *Runner[E]) publishItem(k int32, st uint32) {
	r.table.SetStatus(int(k), st)
}

// commit is the deferred write-back that ends every superstep: each
// legal switch k exchanges its sources src[2k..2k+1] with its targets
// ins[2k..2k+1]. No decision reads the lists after the last round, so
// one write after it leaves E as rewiring at decision time would; the
// sources of a superstep are distinct, so the order of the writes is
// free.
func (r *Runner[E]) commit(_, lo, hi int) {
	t := r.table
	for k := lo; k < hi; k++ {
		if t.StatusOf(k) == conc.StatusLegal {
			r.exchange(k)
		}
	}
}

// exchange swaps switch k's pair in src with its pair in ins — sources
// for targets, or back — and, in a prefix superstep, writes the pair
// now in src to E at the switch's indices.
func (r *Runner[E]) exchange(k int) {
	i := 2 * k
	s, d := r.src[i:i+2:i+2], r.ins[i:i+2:i+2]
	s[0], s[1], d[0], d[1] = d[0], d[1], s[0], s[1]
	if !r.global {
		sw := r.switches[k]
		r.E[sw.I], r.E[sw.J] = s[0], s[1]
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
	e1, e2 := r.src[2*k], r.src[2*k+1]
	t3, t4 := r.ins[2*k], r.ins[2*k+1]

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
		unique := [2]bool{t.Unique(t3), t.Unique(t4)}
		for i, target := range targets {
			if !unique[i] {
				t.Touch(target)
			}
		}
		delay := false
		for i, target := range targets {
			// One chain walk answers both dependency queries: the
			// switch erasing the target and its minimum inserter. A
			// unique target has neither.
			var p, q int
			var sq uint32
			var pOK, qOK bool
			if !unique[i] {
				p, pOK, q, sq, qOK = t.Probe(target)
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
			} else if !r.global && r.Set.Contains(graph.Edge(target)) {
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

// NumSwitches returns the switch count of the superstep most recently
// executed by Run or RunGlobal.
func (r *Runner[E]) NumSwitches() int { return r.n }

// Rollback undoes accepted switch k of the superstep most recently
// executed by Run or RunGlobal on a set-backed runner: the source edges
// return to the edge list and the edge set, the targets are erased, and
// the switch is re-marked illegal. It is the primitive of the speculate-then-recertify mode
// for global constraints (constraint.Recertify) and must be applied in
// reverse commit order — undoing the highest accepted k first — so
// that each undo reverts exactly the last step of the equivalent
// sequential application. Single-goroutine, between supersteps only,
// before the edge list changes otherwise. Like applySet it panics if
// the set no longer mirrors the list.
func (r *Runner[E]) Rollback(k int) {
	i := 2 * k
	r.swapSet(r.src[i], r.src[i+1], r.ins[i], r.ins[i+1])
	r.exchange(k)
	r.table.SetStatus(k, conc.StatusIllegal)
	r.Stats.Legal--
	r.Stats.Vetoed++
	r.Stats.RolledBack++
}
