package conc

import (
	"math/bits"
	"sync/atomic"

	"gesmc/internal/graph"
	"gesmc/internal/rng"
)

// Bucket layout: each 64-bit bucket holds a graph.Edge (or a directed
// arc in the same 32+32 encoding) as-is. Empty and tombstone are
// sentinel values that no stored edge or arc can equal, because both
// decode to loops and neither a simple edge nor a stored arc has equal
// endpoints:
//
//	empty     = 0                  (loop {0,0})
//	tombstone = 0xFFFFFFFFFFFFFFFF (loop {2^32-1, 2^32-1})
const (
	bucketEmpty     = uint64(0)
	bucketTombstone = ^uint64(0)
)

// EdgeSet is a fixed-capacity concurrent open-addressing hash set of
// edges with linear probing (§5.2 of the paper). The capacity is fixed
// at construction: edge switching preserves the edge count, so the set
// never needs to grow mid-run. Deletions write tombstones, inserts reuse
// them, and the owner clears and rebuilds the table at a superstep
// boundary once NeedsCompact reports that tombstones have accumulated
// (ClearRange, ResetCounts, then InsertUnique of every live edge).
//
// Concurrency contract, by method:
//
//   - Contains and Touch are safe concurrently with everything except
//     ClearRange.
//   - InsertUnique/EraseUnique require that no two goroutines operate on
//     the same edge concurrently (guaranteed inside a superstep: at most
//     one legal inserter and one eraser per edge, Observation 2), and
//     that no two goroutines pass the same worker index concurrently.
//   - Len, Tombstones, NeedsCompact and ResetCounts
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
// overhead on the apply phase of the kernel.
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

func (s *EdgeSet) home(p uint64) uint64 {
	return rng.Mix64(p) & s.mask
}

// Touch loads the home bucket of e, pulling the probe chain's first
// cache line in ahead of a later Contains/insert/erase. It is a real
// atomic load whose value is discarded, not a non-blocking prefetch, so
// it only pays when issued next to other independent loads (the
// kernel's decide step overlaps four); safe under any concurrency.
func (s *EdgeSet) Touch(e graph.Edge) {
	_ = atomic.LoadUint64(&s.buckets[s.home(uint64(e))])
}

// Contains reports whether e is live in the set.
func (s *EdgeSet) Contains(e graph.Edge) bool {
	p := uint64(e)
	i := s.home(p)
	for probes := uint64(0); probes <= s.mask; probes++ {
		b := atomic.LoadUint64(&s.buckets[i])
		if b == bucketEmpty {
			return false
		}
		if b == p {
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
	p := uint64(e)
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

// EraseUnique removes e, which must be live, with no other goroutine
// concurrently operating on the same edge, counting into worker's
// shard.
func (s *EdgeSet) EraseUnique(e graph.Edge, worker int) {
	p := uint64(e)
	i := s.home(p)
	for probes := uint64(0); probes <= s.mask; probes++ {
		b := atomic.LoadUint64(&s.buckets[i])
		if b == bucketEmpty {
			panic("conc: EraseUnique of absent edge")
		}
		if b == p {
			if s.seq {
				s.buckets[i] = bucketTombstone
			} else if !atomic.CompareAndSwapUint64(&s.buckets[i], p, bucketTombstone) {
				panic("conc: EraseUnique raced (edge contended)")
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

// NeedsCompact reports whether tombstones occupy more than a quarter of
// the table. Quiescent points only.
func (s *EdgeSet) NeedsCompact() bool {
	return s.Tombstones()*4 > len(s.buckets)
}

// ClearRange empties buckets [lo, hi). The caller must guarantee
// quiescence and, before reusing the set, restore the live edges and
// call ResetCounts — the building block of switching.Runner's pooled,
// allocation-free compaction.
func (s *EdgeSet) ClearRange(lo, hi int) {
	for i := lo; i < hi; i++ {
		s.buckets[i] = bucketEmpty
	}
}

// ResetCounts zeroes every counter shard after ClearRange.
func (s *EdgeSet) ResetCounts() {
	clear(s.counts)
}
