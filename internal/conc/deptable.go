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
// positions 4k .. 4k+3, so phase 1 needs no allocation synchronization —
// workers only contend on the bucket head CAS.
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
// Epoch-stamped reset: bucket heads pack (epoch, arena index) into one
// word and status words pack (epoch, status); a head or status whose
// epoch differs from the table's current one reads as empty/undecided.
// Reset therefore only bumps the epoch — O(1) instead of O(capacity) —
// and performs a genuine clear only when the epoch tag would wrap
// (every 2^30-1 supersteps). The epoch itself is written only at the
// quiescent superstep boundary and is read-only during a superstep.
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
)

// NewDepTable returns a table with room for maxSwitches switches per
// superstep. The same table is reused across supersteps via Reset.
//
// The arena holds 4·maxSwitches + 1 tuples: a global superstep of ℓ
// switches over m edges stores 4ℓ switch tuples and m − 2ℓ survivors,
// 2m − 1 = 4⌊m/2⌋ + 1 of them when m is odd and ℓ = ⌊m/2⌋ (the common
// case at a small loop probability).
func NewDepTable(maxSwitches int) *DepTable {
	slots := 4*maxSwitches + 1
	nb := 1 << uint(bits.Len(uint(slots)))
	if nb < 16 {
		nb = 16
	}
	return &DepTable{
		heads:   make([]uint64, nb),
		mask:    uint64(nb - 1),
		entries: make([]depEntry, slots),
		status:  make([]uint32, maxSwitches),
		epoch:   0, // first Reset moves to 1; zeroed words can never match
	}
}

// SetSequential switches the table's write side between the concurrent
// (CAS/atomic-store) and the plain single-goroutine paths. Callers set
// it once, when they know the gang size that will drive the table.
func (t *DepTable) SetSequential(on bool) { t.seq = on }

// Reset prepares the table for a superstep of nSwitches switches and
// nSurvivors survivor tuples by advancing the epoch: all previously
// stored heads and statuses become stale in O(1). The caller must be
// quiescent (superstep boundary).
func (t *DepTable) Reset(nSwitches, nSurvivors int) {
	if nSwitches > len(t.status) || 4*nSwitches+nSurvivors > len(t.entries) {
		panic("conc: DepTable capacity exceeded")
	}
	t.nSwitch = nSwitches
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

// Touch loads the head bucket of e, pulling its cache line in ahead of
// a later Probe (the kernel's decide step overlaps it with three other
// independent loads). Purely a memory hint; staleness cannot affect
// correctness.
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

// Store registers tuple slot (0..3) of switch k: an operation of the
// given kind on edge e. Safe for concurrent use by distinct (k, slot)
// pairs.
func (t *DepTable) Store(k int, slot int, e graph.Edge, kind uint8) {
	m := uint32(k)
	if kind == KindInsert {
		m |= kindInsertBit
	}
	t.link(int32(4*k+slot), e, m)
}

// StoreSurvivor registers the j-th survivor of the superstep: edge e,
// present at superstep start and sourced by no switch, as an erase
// tuple of switch SurvivorIdx. Safe for concurrent use by distinct j
// and alongside Store.
func (t *DepTable) StoreSurvivor(j int, e graph.Edge) {
	t.link(int32(4*t.nSwitch+j), e, SurvivorIdx)
}

// link writes arena entry pos and pushes it onto the chain of e.
func (t *DepTable) link(pos int32, e graph.Edge, meta uint32) {
	ent := &t.entries[pos]
	ent.key = uint64(e)
	ent.meta = meta
	head := &t.heads[t.bucket(e)]
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
