// Package hashset implements the sequential open-addressing edge set of
// §5.2 of the paper: linear probing over a power-of-two bucket array with
// a maximum load factor of 1/2 and constant-time insert/erase/contains.
// It stores the 64 bits of any edge kind as-is — canonical undirected
// edges and directed arcs alike, both bit-cast to graph.Edge — so the
// sequential chains of every kind share it.
//
// Deletions use backward-shift compaction instead of tombstones, so
// lookup cost never degrades no matter how many switches are performed.
package hashset

import (
	"math/bits"

	"gesmc/internal/graph"
	"gesmc/internal/rng"
)

// empty marks a free bucket. It is the loop (2^32−1, 2^32−1) under both
// the canonical-edge and the arc packing, and no chain stores a loop.
const empty = ^uint64(0)

// Set is an open-addressing hash set of edges. The zero value is not
// usable; create sets with New.
type Set struct {
	buckets []uint64
	mask    uint64
	size    int
	maxLoad float64
}

// New returns a set sized for capacity elements at the given maximum load
// factor (0 < maxLoad <= 0.9). The paper's configuration is maxLoad=0.5.
func New(capacity int, maxLoad float64) *Set {
	if maxLoad <= 0 || maxLoad > 0.9 {
		panic("hashset: max load factor out of range")
	}
	s := &Set{maxLoad: maxLoad}
	s.init(capacity)
	return s
}

func (s *Set) init(capacity int) {
	want := int(float64(capacity)/s.maxLoad) + 1
	nb := 1 << uint(bits.Len(uint(want)))
	if nb < 16 {
		nb = 16
	}
	s.buckets = make([]uint64, nb)
	for i := range s.buckets {
		s.buckets[i] = empty
	}
	s.mask = uint64(nb - 1)
	s.size = 0
}

// FromEdges builds a set containing the edges of the slice, of any
// 64-bit edge kind (stored bit-cast to graph.Edge).
func FromEdges[E ~uint64](edges []E, maxLoad float64) *Set {
	s := New(len(edges), maxLoad)
	for _, e := range edges {
		s.Insert(graph.Edge(e))
	}
	return s
}

// Len returns the number of stored edges.
func (s *Set) Len() int { return s.size }

// Buckets returns the number of buckets (for load-factor diagnostics).
func (s *Set) Buckets() int { return len(s.buckets) }

func (s *Set) slot(e graph.Edge) uint64 {
	return rng.Mix64(uint64(e)) & s.mask
}

// Contains reports whether e is in the set.
func (s *Set) Contains(e graph.Edge) bool {
	i := s.slot(e)
	for {
		b := s.buckets[i]
		if b == uint64(e) {
			return true
		}
		if b == empty {
			return false
		}
		i = (i + 1) & s.mask
	}
}

// Insert adds e and reports whether it was absent. The set grows
// automatically when the load factor would be exceeded.
func (s *Set) Insert(e graph.Edge) bool {
	if float64(s.size+1) > s.maxLoad*float64(len(s.buckets)) {
		s.grow()
	}
	i := s.slot(e)
	for {
		b := s.buckets[i]
		if b == uint64(e) {
			return false
		}
		if b == empty {
			s.buckets[i] = uint64(e)
			s.size++
			return true
		}
		i = (i + 1) & s.mask
	}
}

// Erase removes e and reports whether it was present. Removal compacts
// the probe chain by backward shifting, leaving no tombstones.
func (s *Set) Erase(e graph.Edge) bool {
	i := s.slot(e)
	for {
		b := s.buckets[i]
		if b == empty {
			return false
		}
		if b == uint64(e) {
			break
		}
		i = (i + 1) & s.mask
	}
	// Backward-shift deletion: scan forward, moving back any element
	// whose ideal slot is outside the gap's cyclic range.
	j := i
	for {
		j = (j + 1) & s.mask
		b := s.buckets[j]
		if b == empty {
			break
		}
		home := rng.Mix64(b) & s.mask
		// Move b back iff its home position does not lie in the
		// cyclic interval (i, j].
		if cyclicBetween(home, i, j) {
			continue
		}
		s.buckets[i] = b
		i = j
	}
	s.buckets[i] = empty
	s.size--
	return true
}

// cyclicBetween reports whether home lies in the half-open cyclic
// interval (gap, pos] — if so, the element at pos may not be moved into
// the gap.
func cyclicBetween(home, gap, pos uint64) bool {
	if gap < pos {
		return gap < home && home <= pos
	}
	return gap < home || home <= pos
}

func (s *Set) grow() {
	old := s.buckets
	s.init(2 * len(s.buckets))
	for _, b := range old {
		if b == empty {
			continue
		}
		i := rng.Mix64(b) & s.mask
		for s.buckets[i] != empty {
			i = (i + 1) & s.mask
		}
		s.buckets[i] = b
		s.size++
	}
}

// ForEach calls fn for every stored edge in unspecified order.
func (s *Set) ForEach(fn func(graph.Edge)) {
	for _, b := range s.buckets {
		if b != empty {
			fn(graph.Edge(b))
		}
	}
}
