package conc

import (
	"math/bits"
	"sync/atomic"

	"gesmc/internal/graph"
	"gesmc/internal/rng"
)

// Bucket layout (§5.2 of the paper): 64-bit buckets, the low 56 bits hold
// the packed edge (28 bits per endpoint), the high 8 bits hold a lock
// byte (0 = unlocked, otherwise owner id + 1). Empty and tombstone are
// sentinel values that cannot collide with a packed simple edge, because
// a simple edge never has equal endpoints:
//
//	empty     = 0                  (packed loop {0,0})
//	tombstone = 0x00FFFFFFFFFFFFFF (packed loop {2^28-1, 2^28-1})
const (
	bucketEmpty     = uint64(0)
	bucketTombstone = uint64(0x00FFFFFFFFFFFFFF)
	edgeMask        = uint64(0x00FFFFFFFFFFFFFF)
	lockShift       = 56
)

// packEdge converts the canonical 64-bit edge encoding (32+32) into the
// 56-bit bucket encoding (28+28). Node ids must be below 2^28
// (graph.MaxNodes), which graph.New enforces.
func packEdge(e graph.Edge) uint64 {
	return uint64(e.U())<<28 | uint64(e.V())
}

// unpackEdge inverts packEdge without canonicalizing: the set is also
// used for directed arcs (package digraph), whose orientation must be
// preserved exactly as stored.
func unpackEdge(b uint64) graph.Edge {
	b &= edgeMask
	return graph.Edge(uint64(b>>28)<<32 | b&(1<<28-1))
}

// EdgeSet is a fixed-capacity concurrent open-addressing hash set of
// edges with linear probing and per-edge lock bytes. The capacity is
// fixed at construction: edge switching preserves the edge count, so the
// set never needs to grow mid-run. Deletions write tombstones; the unique
// insert path may reuse them, and Compact rebuilds the table when
// tombstones accumulate.
//
// Concurrency contract, by method:
//
//   - Contains and Touch are safe concurrently with everything except
//     Compact/ClearRange.
//   - InsertUnique/EraseUnique require that no two goroutines operate on
//     the same edge concurrently (guaranteed inside a superstep: at most
//     one legal inserter and one eraser per edge, Observation 2), and
//     that no two goroutines pass the same worker index concurrently.
//   - TryLock/TryInsertLock/Unlock/EraseLocked implement the ticket
//     semantics of NaiveParES and are safe for arbitrary concurrency
//     between distinct owners; the owner id doubles as the worker index.
//   - Len, Tombstones, NeedsCompact, ResetCounts, Compact and ForEach
//     require external quiescence (superstep boundary, after the gang
//     barrier that orders every worker's writes before the read).
//
// Counting: the live and tombstone counts are split into one padded
// shard per worker, bumped with plain increments by the worker that
// owns it and summed at quiescent points, so the apply phase performs
// no read-modify-write on a cache line shared between workers. A shard
// may go negative (a worker erasing more than it inserts); only the
// sums mean anything.
//
// Sequential mode (SetSequential) replaces the bucket compare-and-swaps
// of the unique insert/erase path with plain stores: a 1-worker gang has
// no concurrency to synchronize, and the locked instructions are pure
// overhead on the apply phase of the kernel. The ticket path (TryLock
// etc.) stays atomic regardless.
type EdgeSet struct {
	buckets []uint64
	mask    uint64
	seq     bool
	counts  []countShard
}

// countShard is one worker's share of the set's counters, padded to two
// cache lines so no two workers' shards share a line (or an adjacent-line
// prefetch pair), whatever the slice's alignment.
type countShard struct {
	size       int64
	tombstones int64
	_          [14]int64
}

// NewEdgeSet returns a set with room for capacity edges at load factor
// <= 1/2 (the paper's configuration), counting for worker indices
// 0..workers-1 (workers < 1 is treated as 1).
func NewEdgeSet(capacity, workers int) *EdgeSet {
	nb := 1 << uint(bits.Len(uint(capacity*2)))
	if nb < 16 {
		nb = 16
	}
	if workers < 1 {
		workers = 1
	}
	return &EdgeSet{
		buckets: make([]uint64, nb),
		mask:    uint64(nb - 1),
		counts:  make([]countShard, workers),
	}
}

// BuildFrom fills the set with the given distinct edges, one goroutine
// per counter shard. It must not run concurrently with other operations.
func (s *EdgeSet) BuildFrom(edges []graph.Edge) {
	Blocks(len(edges), len(s.counts), func(w, lo, hi int) {
		for _, e := range edges[lo:hi] {
			s.InsertUnique(e, w)
		}
	})
}

// SetSequential switches the unique-path bucket writes between
// compare-and-swap and plain stores. Callers set it once, when they
// know the gang size driving the set.
func (s *EdgeSet) SetSequential(on bool) { s.seq = on }

// Len returns the number of live edges. Quiescent points only.
func (s *EdgeSet) Len() int {
	n := int64(0)
	for i := range s.counts {
		n += s.counts[i].size
	}
	return int(n)
}

// Tombstones returns the current tombstone count. Quiescent points only.
func (s *EdgeSet) Tombstones() int {
	n := int64(0)
	for i := range s.counts {
		n += s.counts[i].tombstones
	}
	return int(n)
}

// Buckets returns the bucket count.
func (s *EdgeSet) Buckets() int { return len(s.buckets) }

func (s *EdgeSet) home(packed uint64) uint64 {
	return rng.Mix64(packed) & s.mask
}

// Touch loads the home bucket of e, pulling the probe chain's first
// cache line in ahead of a later Contains/insert/erase. It is a real
// atomic load whose value is discarded, not a non-blocking prefetch, so
// it only pays when issued next to other independent loads (the
// kernel's decide step overlaps four); safe under any concurrency.
func (s *EdgeSet) Touch(e graph.Edge) {
	_ = atomic.LoadUint64(&s.buckets[s.home(packEdge(e))])
}

// Contains reports whether e is live in the set, ignoring lock bytes.
func (s *EdgeSet) Contains(e graph.Edge) bool {
	p := packEdge(e)
	i := s.home(p)
	for probes := uint64(0); probes <= s.mask; probes++ {
		b := atomic.LoadUint64(&s.buckets[i])
		if b == bucketEmpty {
			return false
		}
		if b&edgeMask == p {
			return true
		}
		i = (i + 1) & s.mask
	}
	panic("conc: EdgeSet probe loop exhausted (tombstone-saturated or misused table)")
}

// InsertUnique inserts e, which must be absent, with no other goroutine
// concurrently inserting or erasing the same edge, counting into
// worker's shard. Tombstone slots are reused. Panics if the table is
// full (capacity misuse).
func (s *EdgeSet) InsertUnique(e graph.Edge, worker int) {
	p := packEdge(e)
	i := s.home(p)
	for probes := uint64(0); probes <= s.mask; probes++ {
		var b uint64
		if s.seq {
			b = s.buckets[i]
			if b == bucketEmpty || b == bucketTombstone {
				s.buckets[i] = p
			} else {
				i = (i + 1) & s.mask
				continue
			}
		} else {
			b = atomic.LoadUint64(&s.buckets[i])
			if b != bucketEmpty && b != bucketTombstone {
				i = (i + 1) & s.mask
				continue
			}
			if !atomic.CompareAndSwapUint64(&s.buckets[i], b, p) {
				continue // slot raced away; re-examine it
			}
		}
		c := &s.counts[worker]
		c.size++
		if b == bucketTombstone {
			c.tombstones--
		}
		return
	}
	panic("conc: EdgeSet full")
}

// EraseUnique removes e, which must be live and unlocked, with no other
// goroutine concurrently operating on the same edge, counting into
// worker's shard.
func (s *EdgeSet) EraseUnique(e graph.Edge, worker int) {
	p := packEdge(e)
	i := s.home(p)
	for probes := uint64(0); probes <= s.mask; probes++ {
		b := atomic.LoadUint64(&s.buckets[i])
		if b == bucketEmpty {
			panic("conc: EraseUnique of absent edge")
		}
		if b&edgeMask == p {
			if b != p {
				panic("conc: EraseUnique of locked edge")
			}
			if s.seq {
				s.buckets[i] = bucketTombstone
			} else if !atomic.CompareAndSwapUint64(&s.buckets[i], p, bucketTombstone) {
				panic("conc: EraseUnique raced (edge locked or contended)")
			}
			c := &s.counts[worker]
			c.size--
			c.tombstones++
			return
		}
		i = (i + 1) & s.mask
	}
	panic("conc: EdgeSet probe loop exhausted (tombstone-saturated or misused table)")
}

// TryLock acquires the ticket for an existing unlocked edge by writing
// owner+1 into its lock byte (compare-and-swap). It fails if the edge is
// absent, locked, or contended.
func (s *EdgeSet) TryLock(e graph.Edge, owner uint8) bool {
	p := packEdge(e)
	lockBits := uint64(owner+1) << lockShift
	i := s.home(p)
	for probes := uint64(0); probes <= s.mask; probes++ {
		b := atomic.LoadUint64(&s.buckets[i])
		if b == bucketEmpty {
			return false
		}
		if b&edgeMask == p {
			if b>>lockShift != 0 {
				return false // already locked
			}
			return atomic.CompareAndSwapUint64(&s.buckets[i], p, p|lockBits)
		}
		i = (i + 1) & s.mask
	}
	panic("conc: EdgeSet probe loop exhausted (tombstone-saturated or misused table)")
}

// TryInsertLock inserts e in locked state if it is absent, counting
// into owner's shard. It fails if e is present (locked or not). Unlike InsertUnique it never reuses
// tombstones: concurrent inserters of the same edge may race, and
// claiming only empty chain tails guarantees at most one wins.
func (s *EdgeSet) TryInsertLock(e graph.Edge, owner uint8) bool {
	p := packEdge(e)
	locked := p | uint64(owner+1)<<lockShift
	i := s.home(p)
	for probes := uint64(0); probes <= s.mask; probes++ {
		b := atomic.LoadUint64(&s.buckets[i])
		if b&edgeMask == p && b != bucketTombstone {
			return false // exists (whoever holds it)
		}
		if b == bucketEmpty {
			if atomic.CompareAndSwapUint64(&s.buckets[i], bucketEmpty, locked) {
				s.counts[owner].size++
				return true
			}
			continue // re-examine raced slot: may now hold p
		}
		i = (i + 1) & s.mask
	}
	panic("conc: EdgeSet full")
}

// Unlock releases a lock held by owner on live edge e.
func (s *EdgeSet) Unlock(e graph.Edge, owner uint8) {
	p := packEdge(e)
	locked := p | uint64(owner+1)<<lockShift
	i := s.home(p)
	for probes := uint64(0); probes <= s.mask; probes++ {
		b := atomic.LoadUint64(&s.buckets[i])
		if b == locked {
			if !atomic.CompareAndSwapUint64(&s.buckets[i], locked, p) {
				panic("conc: Unlock raced")
			}
			return
		}
		if b == bucketEmpty {
			panic("conc: Unlock of absent edge")
		}
		i = (i + 1) & s.mask
	}
	panic("conc: EdgeSet probe loop exhausted (tombstone-saturated or misused table)")
}

// EraseLocked removes edge e whose lock is held by owner, counting into
// owner's shard.
func (s *EdgeSet) EraseLocked(e graph.Edge, owner uint8) {
	p := packEdge(e)
	locked := p | uint64(owner+1)<<lockShift
	i := s.home(p)
	for probes := uint64(0); probes <= s.mask; probes++ {
		b := atomic.LoadUint64(&s.buckets[i])
		if b == locked {
			if !atomic.CompareAndSwapUint64(&s.buckets[i], locked, bucketTombstone) {
				panic("conc: EraseLocked raced")
			}
			c := &s.counts[owner]
			c.size--
			c.tombstones++
			return
		}
		if b == bucketEmpty {
			panic("conc: EraseLocked of absent edge")
		}
		i = (i + 1) & s.mask
	}
	panic("conc: EdgeSet probe loop exhausted (tombstone-saturated or misused table)")
}

// NeedsCompact reports whether tombstones occupy more than a quarter of
// the table. Quiescent points only.
func (s *EdgeSet) NeedsCompact() bool {
	return s.Tombstones()*4 > len(s.buckets)
}

// ClearRange empties buckets [lo, hi). The caller must guarantee
// quiescence and, before reusing the set, restore the live edges and
// call ResetCounts — this is the building block of a pooled,
// allocation-free Compact (see switching.Runner).
func (s *EdgeSet) ClearRange(lo, hi int) {
	for i := lo; i < hi; i++ {
		s.buckets[i] = bucketEmpty
	}
}

// ResetCounts zeroes every counter shard after ClearRange.
func (s *EdgeSet) ResetCounts() {
	clear(s.counts)
}

// Compact rebuilds the table from the authoritative edge list, dropping
// all tombstones, one goroutine per counter shard. The caller must
// guarantee quiescence.
func (s *EdgeSet) Compact(edges []graph.Edge) {
	Blocks(len(s.buckets), len(s.counts), func(_, lo, hi int) { s.ClearRange(lo, hi) })
	s.ResetCounts()
	s.BuildFrom(edges)
}

// ForEach calls fn for every live edge. The caller must guarantee
// quiescence.
func (s *EdgeSet) ForEach(fn func(graph.Edge)) {
	for _, b := range s.buckets {
		if b != bucketEmpty && b != bucketTombstone {
			fn(unpackEdge(b))
		}
	}
}
