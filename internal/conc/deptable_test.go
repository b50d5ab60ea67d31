package conc

import (
	"testing"

	"gesmc/internal/graph"
	"gesmc/internal/rng"
)

func edge(u, v uint32) graph.Edge { return graph.MakeEdge(u, v) }

// fillers returns n distinct keys of node range [base, base+n+1),
// placeholders for tuples a test does not name.
func fillers(base uint32, n int) []graph.Edge {
	out := make([]graph.Edge, n)
	for i := range out {
		out[i] = edge(base+uint32(i), base+uint32(i)+1)
	}
	return out
}

// unfiltered returns a one-worker table whose filter marks every slot
// shared, so Probe sees every registered tuple: the chain mechanics
// under test do not depend on which keys the filter finds unique.
func unfiltered(maxSwitches, maxSources int) *DepTable[graph.Edge] {
	dt := NewDepTable[graph.Edge](maxSwitches, maxSources, 1)
	dt.DisableFilter()
	return dt
}

// index runs the table's merge and link passes on the caller.
func index(dt *DepTable[graph.Edge]) {
	for _, ps := range dt.IndexPasses() {
		ps.Fn(0, 0, ps.N)
	}
}

// markSwitch registers switch k of the current superstep on worker w,
// the way the kernel's phase 1 does: its targets t3 and t4 written to
// the table's insert tuples, and all four keys — the two sources,
// already in the source list, and the targets — marked.
func markSwitch(dt *DepTable[graph.Edge], w, k int, t3, t4 graph.Edge) {
	ins := dt.Inserts()
	ins[2*k], ins[2*k+1] = t3, t4
	dt.Mark(w, dt.src[2*k])
	dt.Mark(w, dt.src[2*k+1])
	dt.Mark(w, t3)
	dt.Mark(w, t4)
}

// load indexes a superstep of n switches over src on one worker:
// switch k sources src[2k..2k+1] and inserts ins[2k..2k+1], and
// src[2n:] are survivors.
func load(dt *DepTable[graph.Edge], src []graph.Edge, n int, ins []graph.Edge) {
	dt.Reset(src, n)
	for k := 0; k < n; k++ {
		markSwitch(dt, 0, k, ins[2*k], ins[2*k+1])
	}
	for _, e := range src[2*n:] {
		dt.Mark(0, e)
	}
	index(dt)
}

func TestDepTableStoreLookup(t *testing.T) {
	dt := unfiltered(8, 16)
	e := edge(1, 2)
	f := edge(3, 4)
	// Switch 0 erases e; switches 1 and 2 insert e; switch 3 inserts f.
	src, ins := fillers(100, 8), fillers(200, 8)
	src[0] = e
	ins[2], ins[4], ins[6] = e, e, f
	load(dt, src, 4, ins)

	if p, pok, q, st, qok := dt.Probe(e); !pok || p != 0 || !qok || q != 1 || st != StatusUndecided {
		t.Fatalf("Probe(e) = %d, %v, %d, %d, %v", p, pok, q, st, qok)
	}
	if _, pok, q, _, qok := dt.Probe(f); pok || !qok || q != 3 {
		t.Fatalf("Probe(f) = eraser %v, inserter %d, %v; want no eraser, inserter 3", pok, q, qok)
	}
	if _, pok, _, _, qok := dt.Probe(edge(9, 10)); pok || qok {
		t.Fatal("Probe of unknown edge found a tuple")
	}
}

func TestDepTableProbeSkipsIllegal(t *testing.T) {
	dt := unfiltered(8, 16)
	e := edge(5, 6)
	src, ins := fillers(100, 8), fillers(200, 8)
	ins[0], ins[2], ins[4] = e, e, e
	load(dt, src, 4, ins)

	dt.SetStatus(0, StatusIllegal)
	if _, _, q, st, ok := dt.Probe(e); !ok || q != 1 || st != StatusUndecided {
		t.Fatalf("Probe after illegal[0] = %d, %d, %v", q, st, ok)
	}
	dt.SetStatus(1, StatusLegal)
	if _, _, q, st, ok := dt.Probe(e); !ok || q != 1 || st != StatusLegal {
		t.Fatalf("Probe with legal[1] = %d, %d, %v", q, st, ok)
	}
	dt.SetStatus(1, StatusIllegal)
	dt.SetStatus(2, StatusIllegal)
	if _, pok, _, _, ok := dt.Probe(e); ok || pok {
		t.Fatal("Probe found a tuple though all inserters illegal and none erases")
	}
}

func TestDepTableResetClears(t *testing.T) {
	dt := unfiltered(8, 16)
	e := edge(1, 2)
	src, ins := fillers(100, 4), fillers(200, 4)
	src[0] = e
	load(dt, src, 2, ins)
	dt.SetStatus(0, StatusLegal)
	if _, ok, _, _, _ := dt.Probe(e); !ok {
		t.Fatal("stored tuple not found")
	}

	// The same source list again: only the epoch tells the stale
	// chains and statuses apart.
	dt.Reset(src, 2)
	if _, ok, _, _, _ := dt.Probe(e); ok {
		t.Fatal("tuple survived Reset")
	}
	if dt.StatusOf(0) != StatusUndecided {
		t.Fatal("status survived Reset")
	}
}

func TestDepTableConcurrentStore(t *testing.T) {
	const nSwitches = 4096
	const workers = 8
	dt := NewDepTable[graph.Edge](nSwitches, 2*nSwitches, workers)
	dt.DisableFilter()
	src := make([]graph.Edge, 2*nSwitches)
	for k := 0; k < nSwitches; k++ {
		src[2*k] = edge(uint32(2*k), uint32(2*k+1))
		src[2*k+1] = edge(uint32(2*k+1), uint32(2*k+2))
	}
	dt.Reset(src, nSwitches)
	pool := NewPool(workers)
	defer pool.Close()
	// Every switch k registers four tuples; several switches share
	// target edges to build long chains. Register, merge and link run
	// as one fused plan, the way the kernel runs them.
	plan := FusedPlan{Passes: append([]FusedPass{{N: nSwitches, Fn: func(w, lo, hi int) {
		for k := lo; k < hi; k++ {
			markSwitch(dt, w, k, edge(uint32(k%7), uint32(100+k%7)), edge(uint32(k%5), uint32(200+k%5)))
		}
	}}}, dt.IndexPasses()...)}
	pool.Fused(&plan)
	// Every erase tuple must be findable.
	for k := 0; k < nSwitches; k++ {
		if p, ok, _, _, _ := dt.Probe(edge(uint32(2*k), uint32(2*k+1))); !ok || p != k {
			t.Fatalf("lost erase tuple of switch %d (got %d, %v)", k, p, ok)
		}
	}
	// The minimum inserter of each shared target must be the smallest k
	// in its residue class.
	for r := 0; r < 7; r++ {
		_, _, q, _, ok := dt.Probe(edge(uint32(r), uint32(100+r)))
		if !ok || q != r {
			t.Fatalf("Probe residue %d: min inserter %d, %v", r, q, ok)
		}
	}
}

func TestDepTableCapacityPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Reset beyond capacity did not panic")
		}
	}()
	dt := NewDepTable[graph.Edge](2, 6, 1)
	dt.Reset(fillers(0, 6), 3)
}

func TestDepTableSurvivorProbe(t *testing.T) {
	dt := unfiltered(4, 8)
	s := edge(7, 8)
	e := edge(1, 2)
	// Two switches, then three survivors: edge(3, 4) first, s last.
	src, ins := fillers(100, 7), fillers(200, 4)
	src[0] = e
	src[4], src[6] = edge(3, 4), s
	ins[2] = s // switch 1 inserts s
	load(dt, src, 2, ins)
	if p, pok, q, _, qok := dt.Probe(s); !pok || p != SurvivorIdx || !qok || q != 1 {
		t.Fatalf("Probe(survivor) = eraser %d, %v, inserter %d, %v; want %d, true, 1, true",
			p, pok, q, qok, SurvivorIdx)
	}
	if p, pok, _, _, _ := dt.Probe(edge(3, 4)); !pok || p != SurvivorIdx {
		t.Fatalf("Probe(survivor 0) = %d, %v", p, pok)
	}
	if p, pok, _, _, _ := dt.Probe(e); !pok || p != 0 {
		t.Fatalf("Probe(sourced) = %d, %v; survivors disturbed the switch tuples", p, pok)
	}
	dt.Reset(src[:4], 2)
	if _, pok, _, _, _ := dt.Probe(s); pok {
		t.Fatal("survivor tuple outlived Reset")
	}
}

// fillGlobal indexes a global superstep over m edges with l switches
// the way the kernel does: switch k sources the list's slots 2k and
// 2k+1 and inserts two targets, and the m − 2l slots after them are
// survivors.
func fillGlobal(dt *DepTable[graph.Edge], m, l int) {
	src := make([]graph.Edge, m)
	ins := make([]graph.Edge, 2*l)
	for k := 0; k < l; k++ {
		src[2*k] = edge(uint32(2*k), uint32(2*k+1))
		src[2*k+1] = edge(uint32(2*k+1), uint32(2*k+2))
		ins[2*k] = edge(uint32(k), uint32(m+k))
		ins[2*k+1] = edge(uint32(k+1), uint32(m+k))
	}
	for j := 0; j < m-2*l; j++ {
		src[2*l+j] = edge(uint32(3*m+j), uint32(4*m+j))
	}
	load(dt, src, l, ins)
}

func TestDepTableCapacityOddGlobal(t *testing.T) {
	// Odd m with ℓ = ⌊m/2⌋ fills m + 2⌊m/2⌋ = 2m − 1 tuple positions:
	// the table's last one is the survivor's.
	for _, m := range []int{3, 5, 101, 1001} {
		dt := unfiltered(m/2, m)
		fillGlobal(dt, m, m/2)
		if p, ok, _, _, _ := dt.Probe(edge(uint32(3*m), uint32(4*m))); !ok || p != SurvivorIdx {
			t.Fatalf("m=%d: survivor in the last slot not found (%d, %v)", m, p, ok)
		}
	}
}

func TestDepTableCapacityFewSwitchesManySurvivors(t *testing.T) {
	// A large loop probability leaves small ℓ and nearly m survivors.
	for _, m := range []int{2, 3, 100, 1001} {
		for _, l := range []int{0, 1, m / 4} {
			dt := unfiltered(m/2, m)
			fillGlobal(dt, m, l)
			for j := 0; j < m-2*l; j++ {
				if p, ok, _, _, _ := dt.Probe(edge(uint32(3*m+j), uint32(4*m+j))); !ok || p != SurvivorIdx {
					t.Fatalf("m=%d l=%d: survivor %d lost", m, l, j)
				}
			}
		}
	}
}

func TestDepTableSurvivorCapacityPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Reset beyond the tuple capacity did not panic")
		}
	}()
	dt := NewDepTable[graph.Edge](2, 5, 1)
	dt.Reset(fillers(0, 6), 2) // 6 + 2·2 = 10 > 5 + 2·2 = 9 tuples
}

// bruteKey is one key of the brute-force multiset: its tuple count,
// its eraser and its minimum inserter (-1 when none).
type bruteKey struct {
	tuples, eraser, minIns int
}

// fillRandom registers a random superstep of nSwitch switches and nSurv
// survivors, switch k and survivor j on worker k (j) mod workers, so
// keys repeat within one worker and across workers; runs the merge and
// link passes; and returns the brute-force multiset. Erase keys are
// distinct (Observation 2); insert keys come from a small pool that
// overlaps them. logF > 0 forces a filter of 2^logF slots.
func fillRandom(dt *DepTable[graph.Edge], workers, nSwitch, nSurv int, seed uint64, logF int) map[graph.Edge]*bruteKey {
	src := rng.NewSplitMix64(seed)
	pool := 2*nSwitch + nSurv
	erase := make([]graph.Edge, pool)
	for i := range erase {
		erase[i] = edge(uint32(i), uint32(i+1))
	}
	for i := len(erase) - 1; i > 0; i-- { // Fisher–Yates
		j := int(src.Uint64() % uint64(i+1))
		erase[i], erase[j] = erase[j], erase[i]
	}
	dt.Reset(erase, nSwitch)
	if logF > 0 {
		// A forced-collision filter of 2^logF slots: nearly every slot
		// holds several keys.
		dt.fshift = uint(64 - logF)
		dt.index[0].N = 1
	}
	want := map[graph.Edge]*bruteKey{}
	get := func(e graph.Edge) *bruteKey {
		b := want[e]
		if b == nil {
			b = &bruteKey{eraser: -1, minIns: -1}
			want[e] = b
		}
		return b
	}
	insPool := nSwitch/4 + 1
	for k := 0; k < nSwitch; k++ {
		for s := 0; s < 2; s++ {
			b := get(erase[2*k+s])
			b.tuples++
			b.eraser = k
		}
		var targets [2]graph.Edge
		for s := range targets {
			u := uint32(src.Uint64() % uint64(insPool))
			e := edge(u, u+1) // overlaps the erase keys' low range
			if src.Uint64()%2 == 0 {
				e = edge(u, u+1<<20)
			}
			targets[s] = e
			b := get(e)
			b.tuples++
			if b.minIns == -1 {
				b.minIns = k
			}
		}
		markSwitch(dt, k%workers, k, targets[0], targets[1])
	}
	for j := 0; j < nSurv; j++ {
		e := erase[2*nSwitch+j]
		dt.Mark(j%workers, e)
		b := get(e)
		b.tuples++
		b.eraser = SurvivorIdx
	}
	index(dt)
	return want
}

// TestDepTableFilterMatchesBruteForce checks the tuple-count filter
// against a brute-force multiset of random tuples, for W ∈ {1, 2, 3, 8}
// registering workers and for a forced-collision filter of four slots:
// Unique is false for every key with two or more tuples, every key
// Unique reports has one tuple, and where Unique is false Probe finds
// exactly the brute-force eraser and minimum inserter.
func TestDepTableFilterMatchesBruteForce(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8} {
		for _, logF := range []int{0, 2} {
			for trial := uint64(0); trial < 4; trial++ {
				dt := NewDepTable[graph.Edge](600, 1200+9, workers)
				// Two supersteps on one table: the second must not see
				// the first's bitmaps.
				for step := uint64(0); step < 2; step++ {
					nSwitch := 100 + int(trial)*150
					want := fillRandom(dt, workers, nSwitch, 3*int(trial), trial<<8|step<<4|uint64(workers), logF)
					unique, singles := 0, 0
					for e, b := range want {
						u := dt.Unique(e)
						if b.tuples == 1 {
							singles++
							if u {
								unique++
							}
						}
						if u {
							if b.tuples != 1 {
								t.Fatalf("W=%d logF=%d: Unique(%v) with %d tuples", workers, logF, e, b.tuples)
							}
							continue
						}
						p, pOK, q, _, qOK := dt.Probe(e)
						if pOK != (b.eraser >= 0) || (pOK && p != b.eraser) {
							t.Fatalf("W=%d logF=%d: Probe(%v) eraser %d/%v, want %d", workers, logF, e, p, pOK, b.eraser)
						}
						if qOK != (b.minIns >= 0) || (qOK && q != b.minIns) {
							t.Fatalf("W=%d logF=%d: Probe(%v) min inserter %d/%v, want %d", workers, logF, e, q, qOK, b.minIns)
						}
					}
					// The default filter must actually filter: with ≥ 8
					// slots per tuple most single-tuple keys are alone.
					if logF == 0 && unique < singles*3/4 {
						t.Fatalf("W=%d: only %d of %d single-tuple keys unique", workers, unique, singles)
					}
				}
			}
		}
	}
}

// TestDepTableFilterCrossWorker pins the merge's cross-worker term: a
// key registered once by each of two workers is in neither worker's
// dup bitmap, and must still read as shared.
func TestDepTableFilterCrossWorker(t *testing.T) {
	dt := NewDepTable[graph.Edge](2, 4, 2)
	e := edge(5, 9)
	dt.Reset([]graph.Edge{edge(1, 2), edge(3, 4), e, edge(10, 11)}, 2)
	markSwitch(dt, 0, 0, e, edge(6, 7))
	markSwitch(dt, 1, 1, edge(12, 13), edge(14, 15))
	index(dt)
	if dt.Unique(e) {
		t.Fatal("key registered by two workers reads unique")
	}
	if p, pOK, q, _, qOK := dt.Probe(e); !pOK || p != 1 || !qOK || q != 0 {
		t.Fatalf("Probe = eraser %d/%v, inserter %d/%v; want 1, 0", p, pOK, q, qOK)
	}
}

// TestDepTableFilterConcurrentLanes registers a superstep from a real
// gang, with one writer per filter lane (W = 2) and with lanes shared
// by several writers (W = 8 > filterLanes), and checks Unique and Probe
// against the brute-force multiset. Each insert on slot 2 names the
// erase key of another switch, which a different worker usually
// registers; slot 3 inserts keys of one tuple.
func TestDepTableFilterConcurrentLanes(t *testing.T) {
	const n = 3000
	ins := func(k int) graph.Edge { j := k * 7919 % n; return edge(uint32(2*j), uint32(2*j+1)) }
	for _, workers := range []int{2, 8} {
		dt := NewDepTable[graph.Edge](n, 2*n, workers)
		pool := NewPool(workers)
		want := map[graph.Edge]*bruteKey{}
		add := func(e graph.Edge, k int, erase bool) {
			b := want[e]
			if b == nil {
				b = &bruteKey{eraser: -1, minIns: -1}
				want[e] = b
			}
			b.tuples++
			if erase {
				b.eraser = k
			} else if b.minIns == -1 || k < b.minIns {
				b.minIns = k
			}
		}
		src := make([]graph.Edge, 2*n)
		for k := 0; k < n; k++ {
			src[2*k] = edge(uint32(2*k), uint32(2*k+1))
			src[2*k+1] = edge(uint32(2*k+1), uint32(2*k+2))
			add(src[2*k], k, true)
			add(src[2*k+1], k, true)
			add(ins(k), k, false)
			add(edge(uint32(k), uint32(1<<20+k)), k, false)
		}
		// Two supersteps: the second must not see the first's lanes.
		for step := 0; step < 2; step++ {
			dt.Reset(src, n)
			plan := FusedPlan{Passes: append([]FusedPass{{N: n, Fn: func(w, lo, hi int) {
				for k := lo; k < hi; k++ {
					markSwitch(dt, w, k, ins(k), edge(uint32(k), uint32(1<<20+k)))
				}
			}}}, dt.IndexPasses()...)}
			pool.Fused(&plan)
			unique, singles := 0, 0
			for e, b := range want {
				if dt.Unique(e) {
					if b.tuples != 1 {
						t.Fatalf("W=%d: Unique(%v) with %d tuples", workers, e, b.tuples)
					}
					unique++
					singles++
					continue
				}
				if b.tuples == 1 {
					singles++
				}
				p, pOK, q, _, qOK := dt.Probe(e)
				if pOK != (b.eraser >= 0) || (pOK && p != b.eraser) || qOK != (b.minIns >= 0) || (qOK && q != b.minIns) {
					t.Fatalf("W=%d: Probe(%v) = eraser %d/%v, inserter %d/%v; want %d, %d", workers, e, p, pOK, q, qOK, b.eraser, b.minIns)
				}
			}
			if unique < singles*3/4 {
				t.Fatalf("W=%d: only %d of %d single-tuple keys unique", workers, unique, singles)
			}
		}
		pool.Close()
	}
}
