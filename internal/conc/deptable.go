package conc

import (
	"math/bits"
	"sync/atomic"

	"gesmc/internal/graph"
	"gesmc/internal/rng"
)

// Switch status values (the s_k of Algorithm 1).
const (
	StatusUndecided uint32 = iota
	StatusLegal
	StatusIllegal
)

// Tuple kinds (the t_{e,k} of Algorithm 1).
const (
	KindErase uint8 = iota
	KindInsert
)

// DepTable is the concurrent dependency table T of Algorithm 1. For every
// switch σ_k of a superstep it stores four tuples — (e1, k, erase),
// (e2, k, erase), (e3, k, insert), (e4, k, insert) — indexed by edge, in
// a lock-free chained hash table. All tuples of σ_k share the single
// status word of switch k, so the "update" of Algorithm 1 (lines 32–33)
// collapses into one atomic store.
//
// The arena is laid out deterministically: the tuples of switch k live at
// positions 4k .. 4k+3, so registration needs no allocation
// synchronization.
//
// Survivor tuples make the table a complete index of the edges present
// at superstep start. A global superstep (Algorithm 3) sources every
// edge except the m − 2ℓ edges its permutation leaves unpaired; each of
// those is registered as an erase tuple of the virtual switch
// SurvivorIdx, later than every real switch, at arena positions 4ℓ + j.
// A probe that finds no erase tuple then proves the edge absent, and a
// survivor target takes the ordinary "erased only by a later switch"
// branch of the decide step — the implicit (e, ∞, erase, illegal) tuple
// of Algorithm 1 made explicit, so no separate edge set is consulted.
//
// Tuple-count filter: on a sparse target almost every key has exactly
// one tuple — the edge its own erase tuple names, or the target its own
// insert tuple names — and such a key needs neither a chain entry nor a
// probe. A superstep therefore builds the table in three passes, which
// the caller runs in order with a barrier between them (IndexPasses
// returns the last two):
//
//  1. Register (Store, StoreSurvivor): write the arena entry and mark
//     the key's filter slot in the seen/dup bitmaps (dup when seen
//     already has it) of the calling worker's lane. The filter has
//     min(W, filterLanes) lanes, worker w writing lane w mod
//     filterLanes: with one writer per lane the marks are plain
//     stores; above filterLanes workers a lane has several writers and
//     marks seen with a compare-and-swap. Every arena position of the
//     superstep — four per switch, then the survivors — must be
//     registered, because link reads them all.
//  2. Merge: per filter word, multi = OR_l dup_l | (seen of earlier
//     lanes & seen_l), a slot with two or more tuples of any workers;
//     the lanes' bitmaps are cleared in the same sweep.
//  3. Link: push onto the hash chains only the arena positions whose
//     slot is in multi.
//
// Unique(e) then reports a key whose slot holds a single tuple. A
// decide step asks it about its own targets: a unique target has no
// erase tuple and no other inserter, so the probe would find only the
// switch's own insert tuple and can be skipped. Keys sharing a slot by
// hash collision are merely probed, so the filter never changes an
// answer. The filter has about filterBitsPerTuple slots per tuple of
// the current superstep, so small supersteps touch small bitmaps, and
// its memory is bounded by the lane count, not the worker count.
//
// Epoch-stamped reset: bucket heads pack (epoch, arena index) into one
// word and status words pack (epoch, status); a head or status whose
// epoch differs from the table's current one reads as empty/undecided.
// Reset therefore only bumps the epoch — O(1) instead of O(capacity) —
// and performs a genuine clear only when the epoch tag would wrap
// (every 2^30-1 supersteps). The epoch itself is written only at the
// quiescent superstep boundary and is read-only during a superstep.
// The filter needs no epoch: merge clears the lanes' bitmaps it reads
// and overwrites every multi word the superstep uses.
//
// Sequential mode (SetSequential) replaces the head CAS loop and the
// status XCHG with plain stores: a 1-worker gang has no concurrency to
// synchronize, and the locked read-modify-writes are pure overhead on
// the hottest loop of the kernel. Loads are unaffected (plain and
// atomic loads cost the same); the mode only changes the write side.
type DepTable struct {
	heads   []uint64 // bucket -> epoch<<32 | arena index of first entry
	mask    uint64
	entries []depEntry // arena, interleaved so one chain hop costs one line
	status  []uint32   // epoch<<2 | status; stale epoch reads undecided
	epoch   uint32     // 1 .. epochMax; stored tags match iff current
	seq     bool
	nSwitch int

	// Filter of the current superstep: slot = Mix64(key) >> fshift, in
	// the first index[0].N words of each bitmap.
	filt       [][]filterWord // per lane: seen and dup of one word
	multi      []uint64
	fshift     uint
	casLanes   bool // a lane has several writers: mark seen by CAS
	unfiltered bool

	// index holds the merge pass over filter words and the link pass
	// over arena positions, built once; Reset sets their lengths.
	index [2]FusedPass
}

// depEntry is one arena tuple: the edge key, the switch index (31 bits)
// with the kind in the top bit, and the chain link. The three fields a
// chain walk reads sit in 16 contiguous bytes, so following a chain
// entry costs one cache line instead of the three a split-array layout
// pays.
type depEntry struct {
	key  uint64
	meta uint32 // switch index | kindInsertBit
	next int32  // chain link, -1 terminates
}

// filterWord is one 64-slot word of a filter lane: the slots its
// writers registered a tuple in, and those they registered two or more
// in. They share a cache line, so registering a tuple touches one line.
type filterWord struct {
	seen, dup uint64
}

// SurvivorIdx is the switch index of survivor tuples: an edge that no
// switch of the superstep sources, erased "after" every switch. It is
// the largest index the 31-bit meta field holds, so no real switch
// index reaches it.
const SurvivorIdx = 1<<31 - 1

const (
	kindInsertBit = uint32(1) << 31
	// statusEpochShift leaves the low 2 bits for the status value.
	statusEpochShift = 2
	// epochMax bounds the epoch tag by the status word's 30 epoch bits
	// (head words have 32 and are never the binding constraint).
	epochMax = 1<<30 - 1
	// filterBitsPerTuple sizes the filter: with ≥ 8 slots per tuple, a
	// key of a single tuple shares its slot with another key about one
	// time in eight.
	filterBitsPerTuple = 8
	// filterLanes caps the filter's seen/dup bitmap pairs, a power of
	// two: up to that many workers each own a lane and mark it with
	// plain stores, and more workers share lanes, so the filter's
	// memory stops growing with the worker count.
	filterLanes = 4
	// linkChunk is the number of arena positions the link pass filters
	// into its stack buffer before linking them.
	linkChunk = 256
)

// NewDepTable returns a table with room for maxSwitches switches per
// superstep, registered by workers 0 .. workers−1. The same table is
// reused across supersteps via Reset.
//
// The arena holds 4·maxSwitches + 1 tuples: a global superstep of ℓ
// switches over m edges stores 4ℓ switch tuples and m − 2ℓ survivors,
// 2m − 1 = 4⌊m/2⌋ + 1 of them when m is odd and ℓ = ⌊m/2⌋ (the common
// case at a small loop probability). Only tuples of shared filter
// slots are chained, so there is one bucket per two arena slots: the
// load factor stays below 2 even if every tuple is chained, and is far
// lower on sparse targets, where most tuples are not.
func NewDepTable(maxSwitches, workers int) *DepTable {
	slots := 4*maxSwitches + 1
	nb := 1 << uint(bits.Len(uint(slots))-1)
	if nb < 16 {
		nb = 16
	}
	words := filterWords(slots)
	t := &DepTable{
		heads:    make([]uint64, nb),
		mask:     uint64(nb - 1),
		entries:  make([]depEntry, slots),
		status:   make([]uint32, maxSwitches),
		epoch:    0, // first Reset moves to 1; zeroed words can never match
		filt:     make([][]filterWord, min(max(workers, 1), filterLanes)),
		multi:    make([]uint64, words),
		casLanes: workers > filterLanes,
	}
	for w := range t.filt {
		t.filt[w] = make([]filterWord, words)
	}
	t.index = [2]FusedPass{{Fn: t.merge}, {Fn: t.link}}
	return t
}

// filterWords is the filter size, in 64-slot words, for n tuples: the
// power of two of at least filterBitsPerTuple·n slots, one word at least.
func filterWords(n int) int {
	return 1 << (filterLog(n) - 6)
}

func filterLog(n int) int {
	return bits.Len(uint(max(filterBitsPerTuple*n, 64) - 1))
}

// SetSequential switches the table's write side between the concurrent
// (CAS/atomic-store) and the plain single-goroutine paths. Callers set
// it once, when they know the gang size that will drive the table.
func (t *DepTable) SetSequential(on bool) { t.seq = on }

// DisableFilter makes merge mark every slot shared from the next
// superstep on, so every tuple is linked and Unique is always false:
// the table answers as an unfiltered chained hash. The differential
// tests compare decisions with and without the filter through it; the
// kernel never calls it.
func (t *DepTable) DisableFilter() { t.unfiltered = true }

// Reset prepares the table for a superstep of nSwitches switches and
// nSurvivors survivor tuples by advancing the epoch: all previously
// stored heads and statuses become stale in O(1). It sizes the filter
// for the superstep's tuples and the index passes to match. The caller
// must be quiescent (superstep boundary).
func (t *DepTable) Reset(nSwitches, nSurvivors int) {
	tuples := 4*nSwitches + nSurvivors
	if nSwitches > len(t.status) || tuples > len(t.entries) {
		panic("conc: DepTable capacity exceeded")
	}
	t.nSwitch = nSwitches
	t.fshift = uint(64 - filterLog(tuples))
	t.index[0].N = filterWords(tuples)
	t.index[1].N = tuples
	if t.epoch >= epochMax {
		// Epoch tag wrap: genuinely clear so stale tags cannot alias.
		for i := range t.heads {
			t.heads[i] = 0
		}
		for i := range t.status {
			t.status[i] = 0
		}
		t.epoch = 0
	}
	t.epoch++
}

// IndexPasses returns the merge and link passes of the current
// superstep, to run in order after every Store and StoreSurvivor and
// before any Unique or Probe. The slice is the table's own: read it,
// do not modify it.
func (t *DepTable) IndexPasses() []FusedPass { return t.index[:] }

// Key returns the edge key stored in arena position pos (tuple slot
// 4k+s of switch k). Valid after the corresponding Store.
func (t *DepTable) Key(pos int) uint64 { return t.entries[pos].key }

// StatusOf returns the status of switch k this superstep.
func (t *DepTable) StatusOf(k int) uint32 {
	v := atomic.LoadUint32(&t.status[k])
	if v>>statusEpochShift != t.epoch {
		return StatusUndecided
	}
	return v & 3
}

// SetStatus publishes the status of switch k (the linearization point
// observed by dependent switches).
func (t *DepTable) SetStatus(k int, st uint32) {
	v := t.epoch<<statusEpochShift | st
	if t.seq {
		t.status[k] = v
		return
	}
	atomic.StoreUint32(&t.status[k], v)
}

func (t *DepTable) bucket(e graph.Edge) uint64 {
	return rng.Mix64(uint64(e)) & t.mask
}

// slot returns the filter slot of key.
func (t *DepTable) slot(key uint64) uint64 {
	return rng.Mix64(key) >> t.fshift
}

// Touch loads the head bucket of e, pulling its cache line in ahead of
// a later Probe (the kernel's decide step overlaps it with its other
// independent bucket loads). Purely a memory hint; staleness cannot
// affect correctness.
func (t *DepTable) Touch(e graph.Edge) {
	_ = atomic.LoadUint64(&t.heads[t.bucket(e)])
}

// headOf decodes a head word: the arena index of the chain's first
// entry, or -1 when the bucket holds no entry of the current epoch.
func (t *DepTable) headOf(h uint64) int32 {
	if uint32(h>>32) != t.epoch {
		return -1
	}
	return int32(uint32(h))
}

// Store registers, on behalf of worker w, tuple slot (0..3) of switch
// k: an operation of the given kind on edge e. Safe for concurrent use
// by distinct (k, slot) pairs and distinct workers.
func (t *DepTable) Store(w, k, slot int, e graph.Edge, kind uint8) {
	m := uint32(k)
	if kind == KindInsert {
		m |= kindInsertBit
	}
	t.register(t.filt[w&(filterLanes-1)], 4*k+slot, uint64(e), m)
}

// StoreSurvivor registers, on behalf of worker w, the j-th survivor of
// the superstep: edge e, present at superstep start and sourced by no
// switch, as an erase tuple of switch SurvivorIdx. Safe for concurrent
// use by distinct j and workers, and alongside Store.
func (t *DepTable) StoreSurvivor(w, j int, e graph.Edge) {
	t.register(t.filt[w&(filterLanes-1)], 4*t.nSwitch+j, uint64(e), SurvivorIdx)
}

// register writes arena entry pos and counts its key in filter lane f.
// A shared lane takes the seen bit by CAS, and whoever finds it taken
// sets dup; the OR's result is not read (DESIGN §5).
func (t *DepTable) register(f []filterWord, pos int, key uint64, meta uint32) {
	ent := &t.entries[pos]
	ent.key = key
	ent.meta = meta
	s := t.slot(key)
	fw := &f[s>>6]
	bit := uint64(1) << (s & 63)
	if !t.casLanes {
		fw.dup |= fw.seen & bit
		fw.seen |= bit
		return
	}
	for {
		old := atomic.LoadUint64(&fw.seen)
		if old&bit != 0 {
			atomic.OrUint64(&fw.dup, bit)
			return
		}
		if atomic.CompareAndSwapUint64(&fw.seen, old, old|bit) {
			return
		}
	}
}

// merge is the merge pass over filter words [lo, hi): it folds the
// lanes' bitmaps into multi and clears them for the next superstep.
func (t *DepTable) merge(_, lo, hi int) {
	force := uint64(0)
	if t.unfiltered {
		force = ^uint64(0)
	}
	for i := lo; i < hi; i++ {
		var seen, multi uint64
		for _, f := range t.filt {
			fw := &f[i]
			multi |= fw.dup | seen&fw.seen
			seen |= fw.seen
			*fw = filterWord{}
		}
		t.multi[i] = multi | force
	}
}

// Unique reports whether e's filter slot holds a single tuple of the
// current superstep, so at most one tuple names e. Valid after the
// merge pass.
func (t *DepTable) Unique(e graph.Edge) bool {
	s := t.slot(uint64(e))
	return t.multi[s>>6]&(1<<(s&63)) == 0
}

// link is the link pass over arena positions [lo, hi): a branch-free
// sweep collects the positions whose slot is shared into a stack
// buffer, chunk by chunk, and only those are pushed onto their chains.
func (t *DepTable) link(_, lo, hi int) {
	var buf [linkChunk]int32
	for c := lo; c < hi; c += linkChunk {
		ents := t.entries[c:min(c+linkChunk, hi)]
		n := 0
		for i := range ents {
			s := t.slot(ents[i].key)
			buf[n] = int32(c + i)
			n += int(t.multi[s>>6] >> (s & 63) & 1)
		}
		for _, pos := range buf[:n] {
			t.push(pos)
		}
	}
}

// push links arena entry pos onto the chain of its key.
func (t *DepTable) push(pos int32) {
	ent := &t.entries[pos]
	head := &t.heads[t.bucket(graph.Edge(ent.key))]
	tagged := uint64(t.epoch)<<32 | uint64(uint32(pos))
	if t.seq {
		ent.next = t.headOf(*head)
		*head = tagged
		return
	}
	for {
		old := atomic.LoadUint64(head)
		ent.next = t.headOf(old)
		if atomic.CompareAndSwapUint64(head, old, tagged) {
			return
		}
	}
}

// Probe walks the chain of e once and answers both dependency queries
// of Algorithm 1's decide step: the switch erasing e (eraseOK=false if
// no switch sources e; by Observation 2 of the paper there is at most
// one; SurvivorIdx for a survivor tuple), and the smallest switch
// index q with an insert tuple for e whose status is not illegal, with
// its status (minOK=false if there is none) — the lookup_min of
// Algorithm 1. One walk for both halves the cache-missing chain
// traversals of the kernel's hottest loop.
//
// Probe is valid after the link pass and finds the tuples of shared
// filter slots only; when e's slot is shared, that is every tuple of e.
//
// The scan is racy with concurrent status updates by design: a tuple
// turning illegal mid-scan may still be reported, in which case the
// caller re-examines the switch in the next round (the delay path),
// which is always sound.
func (t *DepTable) Probe(e graph.Edge) (eraseIdx int, eraseOK bool, minQ int, minStatus uint32, minOK bool) {
	key := uint64(e)
	best := -1
	var bestStatus uint32
	for pos := t.headOf(atomic.LoadUint64(&t.heads[t.bucket(e)])); pos >= 0; {
		ent := &t.entries[pos]
		pos = ent.next
		if ent.key != key {
			continue
		}
		m := ent.meta
		if m&kindInsertBit == 0 {
			eraseIdx, eraseOK = int(m), true
			continue
		}
		idx := int(m &^ kindInsertBit)
		st := t.StatusOf(idx)
		if st == StatusIllegal {
			continue
		}
		if best == -1 || idx < best {
			best = idx
			bestStatus = st
		}
	}
	if best == -1 {
		return eraseIdx, eraseOK, 0, 0, false
	}
	return eraseIdx, eraseOK, best, bestStatus, true
}
