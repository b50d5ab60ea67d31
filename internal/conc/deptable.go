package conc

import (
	"math/bits"
	"sync/atomic"

	"gesmc/internal/rng"
)

// Switch status values (the s_k of Algorithm 1).
const (
	StatusUndecided uint32 = iota
	StatusLegal
	StatusIllegal
)

// DepTable is the concurrent dependency table T of Algorithm 1. For every
// switch σ_k of a superstep it holds four tuples — (e1, k, erase),
// (e2, k, erase), (e3, k, insert), (e4, k, insert) — indexed by edge, in
// a lock-free chained hash table. All tuples of σ_k share the single
// status word of switch k, so the "update" of Algorithm 1 (lines 32–33)
// collapses into one atomic store. The table is generic over the
// 64-bit key type K, so it keys the caller's edge (or arc) list in
// place.
//
// Tuples are positions, not copies. A superstep hands Reset its
// source list src, in which switch k sources src[2k] and src[2k+1];
// the table stores only the targets, in its own list ins, where
// switch k inserts ins[2k] and ins[2k+1]. Tuple p < len(src) is the
// erase tuple src[p] of switch p>>1, and tuple len(src)+q the insert
// tuple ins[q] of switch q>>1, so a tuple's switch index and kind
// follow from its position and the caller writes every key (Inserts)
// without synchronization.
//
// Survivor tuples make the table a complete index of the edges present
// at superstep start. A global superstep (Algorithm 3) sources every
// edge except the m − 2ℓ edges its shuffle leaves unpaired: the source
// list is the whole (shuffled) edge list, and src[2ℓ:] are erase
// tuples of the virtual switch SurvivorIdx, later than every real
// switch. A probe that finds no erase tuple then proves the edge
// absent, and a survivor target takes the ordinary "erased only by a
// later switch" branch of the decide step — the implicit
// (e, ∞, erase, illegal) tuple of Algorithm 1 made explicit, so no
// separate edge set is consulted. A prefix superstep's source list is
// a gather of its sources, with no survivors.
//
// Tuple-count filter: on a sparse target almost every key has exactly
// one tuple — the edge its own erase tuple names, or the target its own
// insert tuple names — and such a key needs neither a chain entry nor a
// probe. A superstep therefore builds the table in three passes, which
// the caller runs in order with a barrier between them (IndexPasses
// returns the last two):
//
//  1. Register (Mark): write the insert keys and mark every tuple's
//     filter slot in the seen/dup bitmaps (dup when seen already has
//     it) of the calling worker's lane. The filter has
//     min(W, filterLanes) lanes, worker w writing lane w mod
//     filterLanes: with one writer per lane the marks are plain
//     stores; above filterLanes workers a lane has several writers and
//     marks seen with a compare-and-swap. Every tuple of the superstep
//     — the whole source list and both targets of every switch — must
//     be marked, because link trusts the filter to name the shared
//     ones.
//  2. Merge: per filter word, multi = OR_l dup_l | (seen of earlier
//     lanes & seen_l), a slot with two or more tuples of any workers;
//     the lanes' bitmaps are cleared in the same sweep.
//  3. Link: push onto the hash chains only the tuple positions whose
//     slot is in multi. The chain links live in their own list next,
//     which only link and Probe touch.
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
// Epoch-stamped reset: bucket heads pack (epoch, tuple position) into
// one word and status words pack (epoch, status); a head or status
// whose epoch differs from the table's current one reads as
// empty/undecided. Reset therefore only bumps the epoch — O(1) instead
// of O(capacity) — and performs a genuine clear only when the epoch
// tag would wrap (every 2^30-1 supersteps). The epoch itself is written
// only at the quiescent superstep boundary and is read-only during a
// superstep. The filter needs no epoch: merge clears the lanes'
// bitmaps it reads and overwrites every multi word the superstep uses.
//
// Sequential mode (SetSequential) replaces the head CAS loop and the
// status XCHG with plain stores: a 1-worker gang has no concurrency to
// synchronize, and the locked read-modify-writes are pure overhead on
// the hottest loop of the kernel. Loads are unaffected (plain and
// atomic loads cost the same); the mode only changes the write side.
type DepTable[K ~uint64] struct {
	heads   []uint64 // bucket -> epoch<<32 | position of the chain's first tuple
	mask    uint64
	src     []K      // erase tuples of the current superstep (the caller's list)
	ins     []K      // insert tuples: switch k inserts ins[2k] and ins[2k+1]
	next    []int32  // chain link per tuple position, -1 terminates
	status  []uint32 // epoch<<2 | status; stale epoch reads undecided
	epoch   uint32   // 1 .. epochMax; stored tags match iff current
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
	// over tuple positions, built once; Reset sets their lengths.
	index [2]FusedPass
}

// filterWord is one 64-slot word of a filter lane: the slots its
// writers registered a tuple in, and those they registered two or more
// in. They share a cache line, so registering a tuple touches one line.
type filterWord struct {
	seen, dup uint64
}

// SurvivorIdx is the switch index of survivor tuples: an edge that no
// switch of the superstep sources, erased "after" every switch. No
// real switch index reaches it.
const SurvivorIdx = 1<<31 - 1

const (
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
	// linkChunk is the number of tuple positions the link pass filters
	// into its stack buffer before linking them.
	linkChunk = 256
)

// NewDepTable returns a table for supersteps of up to maxSwitches
// switches over source lists of up to maxSources edges, registered by
// workers 0 .. workers−1. The same table is reused across supersteps
// via Reset.
//
// A global superstep of ℓ switches over m edges has m + 2ℓ ≤ 2m
// tuples, a prefix superstep of t switches 4t. Only tuples of shared
// filter slots are chained, so there is one bucket per one to two
// tuple positions: the load factor stays below 2 even if every tuple
// is chained, and is far lower on sparse targets, where most tuples
// are not.
func NewDepTable[K ~uint64](maxSwitches, maxSources, workers int) *DepTable[K] {
	slots := maxSources + 2*maxSwitches
	nb := 1 << uint(bits.Len(uint(max(slots, 1)))-1)
	if nb < 16 {
		nb = 16
	}
	words := filterWords(slots)
	t := &DepTable[K]{
		heads:    make([]uint64, nb),
		mask:     uint64(nb - 1),
		ins:      make([]K, 2*maxSwitches),
		next:     make([]int32, slots),
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
func (t *DepTable[K]) SetSequential(on bool) { t.seq = on }

// DisableFilter makes merge mark every slot shared from the next
// superstep on, so every tuple is linked and Unique is always false:
// the table answers as an unfiltered chained hash. The differential
// tests compare decisions with and without the filter through it; the
// kernel never calls it.
func (t *DepTable[K]) DisableFilter() { t.unfiltered = true }

// Reset prepares the table for a superstep of nSwitches switches over
// the source list src — switch k sources src[2k] and src[2k+1], and
// src[2·nSwitches:] are survivors — by advancing the epoch: all
// previously stored heads and statuses become stale in O(1). It sizes
// the filter for the superstep's len(src) + 2·nSwitches tuples and the
// index passes to match. The table reads src until the next Reset;
// the caller must not move its values while a superstep decides. The
// caller must be quiescent (superstep boundary).
func (t *DepTable[K]) Reset(src []K, nSwitches int) {
	tuples := len(src) + 2*nSwitches
	if nSwitches > len(t.status) || 2*nSwitches > len(src) || tuples > len(t.next) {
		panic("conc: DepTable capacity exceeded")
	}
	t.src = src
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
// superstep, to run in order after every Mark and before any Unique
// or Probe. The slice is the table's own: read it,
// do not modify it.
func (t *DepTable[K]) IndexPasses() []FusedPass { return t.index[:] }

// Inserts returns the insert tuples of the current superstep: the
// caller writes switch k's targets to [2k] and [2k+1] before marking
// them. The slice is the table's own and is valid until the next
// Reset.
func (t *DepTable[K]) Inserts() []K { return t.ins[:2*t.nSwitch] }

// StatusOf returns the status of switch k this superstep.
func (t *DepTable[K]) StatusOf(k int) uint32 {
	v := atomic.LoadUint32(&t.status[k])
	if v>>statusEpochShift != t.epoch {
		return StatusUndecided
	}
	return v & 3
}

// SetStatus publishes the status of switch k (the linearization point
// observed by dependent switches).
func (t *DepTable[K]) SetStatus(k int, st uint32) {
	v := t.epoch<<statusEpochShift | st
	if t.seq {
		t.status[k] = v
		return
	}
	atomic.StoreUint32(&t.status[k], v)
}

func (t *DepTable[K]) bucket(e K) uint64 {
	return rng.Mix64(uint64(e)) & t.mask
}

// slot returns the filter slot of key.
func (t *DepTable[K]) slot(key uint64) uint64 {
	return rng.Mix64(key) >> t.fshift
}

// Touch loads the head bucket of e, pulling its cache line in ahead of
// a later Probe (the kernel's decide step overlaps it with its other
// independent bucket loads). Purely a memory hint; staleness cannot
// affect correctness.
func (t *DepTable[K]) Touch(e K) {
	_ = atomic.LoadUint64(&t.heads[t.bucket(e)])
}

// headOf decodes a head word: the position of the chain's first
// tuple, or -1 when the bucket holds no tuple of the current epoch.
func (t *DepTable[K]) headOf(h uint64) int32 {
	if uint32(h>>32) != t.epoch {
		return -1
	}
	return int32(uint32(h))
}

// Mark registers, on behalf of worker w, one tuple of key e in the
// filter: the caller marks every source and every target of the
// superstep once. Safe for concurrent use by distinct workers. A
// shared lane takes the seen bit by CAS, and whoever finds it taken
// sets dup; the OR's result is not read (DESIGN §5).
func (t *DepTable[K]) Mark(w int, e K) {
	s := t.slot(uint64(e))
	fw := &t.filt[w&(filterLanes-1)][s>>6]
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
func (t *DepTable[K]) merge(_, lo, hi int) {
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
func (t *DepTable[K]) Unique(e K) bool {
	s := t.slot(uint64(e))
	return t.multi[s>>6]&(1<<(s&63)) == 0
}

// link is the link pass over tuple positions [lo, hi): the erase
// tuples of the source list, then the insert tuples.
func (t *DepTable[K]) link(_, lo, hi int) {
	ns := len(t.src)
	t.linkKeys(t.src, 0, lo, min(hi, ns))
	t.linkKeys(t.ins, ns, max(lo, ns)-ns, hi-ns)
}

// linkKeys links the tuples keys[lo:hi), at positions base+lo onwards:
// a branch-free sweep collects the indices whose slot is shared into a
// stack buffer, chunk by chunk, and only those are pushed onto their
// chains.
func (t *DepTable[K]) linkKeys(keys []K, base, lo, hi int) {
	var buf [linkChunk]int32
	for c := lo; c < hi; c += linkChunk {
		ks := keys[c:min(c+linkChunk, hi)]
		n := 0
		for i, k := range ks {
			s := t.slot(uint64(k))
			buf[n] = int32(i)
			n += int(t.multi[s>>6] >> (s & 63) & 1)
		}
		for _, i := range buf[:n] {
			t.push(int32(base+c)+i, ks[i])
		}
	}
}

// push links tuple position pos, of key e, onto the chain of e.
func (t *DepTable[K]) push(pos int32, e K) {
	head := &t.heads[t.bucket(e)]
	tagged := uint64(t.epoch)<<32 | uint64(uint32(pos))
	if t.seq {
		t.next[pos] = t.headOf(*head)
		*head = tagged
		return
	}
	for {
		old := atomic.LoadUint64(head)
		t.next[pos] = t.headOf(old)
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
func (t *DepTable[K]) Probe(e K) (eraseIdx int, eraseOK bool, minQ int, minStatus uint32, minOK bool) {
	ns := len(t.src)
	best := -1
	var bestStatus uint32
	for pos := t.headOf(atomic.LoadUint64(&t.heads[t.bucket(e)])); pos >= 0; pos = t.next[pos] {
		p := int(pos)
		if p < ns {
			if t.src[p] != e {
				continue
			}
			eraseIdx, eraseOK = p>>1, true
			if p >= 2*t.nSwitch {
				eraseIdx = SurvivorIdx
			}
			continue
		}
		p -= ns
		if t.ins[p] != e {
			continue
		}
		idx := p >> 1
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
