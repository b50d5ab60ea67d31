package hashset

import (
	"testing"

	"gesmc/internal/graph"
	"gesmc/internal/rng"
)

func edge(u, v uint32) graph.Edge { return graph.MakeEdge(u, v) }

func TestInsertContainsErase(t *testing.T) {
	s := NewDefault(4)
	e := edge(1, 2)
	if s.Contains(e) {
		t.Fatal("empty set contains edge")
	}
	if !s.Insert(e) {
		t.Fatal("first insert reported duplicate")
	}
	if s.Insert(e) {
		t.Fatal("duplicate insert reported fresh")
	}
	if !s.Contains(e) || s.Len() != 1 {
		t.Fatal("edge lost after insert")
	}
	if !s.Erase(e) {
		t.Fatal("erase of present edge failed")
	}
	if s.Erase(e) {
		t.Fatal("erase of absent edge succeeded")
	}
	if s.Contains(e) || s.Len() != 0 {
		t.Fatal("edge still present after erase")
	}
}

// TestModelEquivalence drives the set with a long random operation
// sequence and compares every answer against a map-based model.
func TestModelEquivalence(t *testing.T) {
	src := rng.NewMT19937(555)
	s := NewDefault(8) // deliberately small: forces growth
	model := map[graph.Edge]struct{}{}
	const universe = 64 // few distinct keys: plenty of collisions
	for op := 0; op < 200000; op++ {
		u := uint32(rng.IntN(src, universe))
		v := uint32(rng.IntN(src, universe))
		if u == v {
			v = (v + 1) % universe
		}
		e := edge(u, v)
		switch rng.IntN(src, 3) {
		case 0:
			_, inModel := model[e]
			if got := s.Insert(e); got == inModel {
				t.Fatalf("op %d: Insert(%v) = %v, model has=%v", op, e, got, inModel)
			}
			model[e] = struct{}{}
		case 1:
			_, inModel := model[e]
			if got := s.Erase(e); got != inModel {
				t.Fatalf("op %d: Erase(%v) = %v, model has=%v", op, e, got, inModel)
			}
			delete(model, e)
		case 2:
			_, inModel := model[e]
			if got := s.Contains(e); got != inModel {
				t.Fatalf("op %d: Contains(%v) = %v, model has=%v", op, e, got, inModel)
			}
		}
		if s.Len() != len(model) {
			t.Fatalf("op %d: Len=%d, model=%d", op, s.Len(), len(model))
		}
	}
}

func TestBackwardShiftChains(t *testing.T) {
	// Build a long collision chain, delete from its middle, and verify
	// every remaining element is still reachable.
	s := NewDefault(1024)
	edges := make([]graph.Edge, 0, 300)
	for i := uint32(0); i < 300; i++ {
		e := edge(i, i+1000)
		edges = append(edges, e)
		s.Insert(e)
	}
	for i := 0; i < len(edges); i += 3 {
		if !s.Erase(edges[i]) {
			t.Fatalf("erase %v failed", edges[i])
		}
	}
	for i, e := range edges {
		want := i%3 != 0
		if got := s.Contains(e); got != want {
			t.Fatalf("after deletions, Contains(%v) = %v, want %v", e, got, want)
		}
	}
}

// TestNonCanonicalArcs stores directed arcs whose tail exceeds their
// head, which no canonical edge encodes: three of them share one home
// bucket, and erasing the first must shift the other two back without
// losing them or confusing an arc with its reverse.
func TestNonCanonicalArcs(t *testing.T) {
	type arc uint64
	mk := func(tail, head uint32) arc { return arc(uint64(tail)<<32 | uint64(head)) }
	s := FromEdges([]arc{mk(9, 2), mk(2, 9)}, 0.5)
	byHome := map[uint64][]arc{}
	var chain []arc
	for head := uint32(0); chain == nil; head++ {
		a := mk(head+1000, head)
		h := s.slot(graph.Edge(a))
		byHome[h] = append(byHome[h], a)
		if len(byHome[h]) == 3 && h+3 < uint64(s.Buckets()) && s.buckets[h] == empty &&
			s.buckets[h+1] == empty && s.buckets[h+2] == empty {
			chain = byHome[h]
		}
	}
	home := s.slot(graph.Edge(chain[0]))
	for _, a := range chain {
		if !s.Insert(graph.Edge(a)) {
			t.Fatalf("insert %#x reported duplicate", uint64(a))
		}
	}
	if !s.Erase(graph.Edge(chain[0])) {
		t.Fatal("erase of the chain head failed")
	}
	if s.buckets[home] != uint64(chain[1]) || s.buckets[home+1] != uint64(chain[2]) || s.buckets[home+2] != empty {
		t.Fatal("erase did not shift the chain back")
	}
	for i, a := range chain {
		rev := mk(uint32(a), uint32(uint64(a)>>32))
		if got := s.Contains(graph.Edge(a)); got != (i > 0) {
			t.Fatalf("Contains(%#x) = %v after erasing the chain head", uint64(a), got)
		}
		if s.Contains(graph.Edge(rev)) {
			t.Fatalf("reverse of %#x found", uint64(a))
		}
	}
	if !s.Contains(graph.Edge(mk(9, 2))) || !s.Contains(graph.Edge(mk(2, 9))) || s.Len() != 4 {
		t.Fatalf("an arc and its reverse must both stay stored (Len %d)", s.Len())
	}
	if !s.Erase(graph.Edge(mk(9, 2))) || !s.Contains(graph.Edge(mk(2, 9))) {
		t.Fatal("erasing an arc touched its reverse")
	}
}

func TestGrowPreservesContent(t *testing.T) {
	s := New(2, 0.5)
	var edges []graph.Edge
	for i := uint32(0); i < 5000; i++ {
		e := edge(i, i+1)
		edges = append(edges, e)
		s.Insert(e)
	}
	for _, e := range edges {
		if !s.Contains(e) {
			t.Fatalf("edge %v lost during growth", e)
		}
	}
	if s.Len() != len(edges) {
		t.Fatalf("Len = %d, want %d", s.Len(), len(edges))
	}
}

func TestFromEdges(t *testing.T) {
	edges := []graph.Edge{edge(0, 1), edge(2, 3), edge(1, 2)}
	s := FromEdges(edges, 0.5)
	for _, e := range edges {
		if !s.Contains(e) {
			t.Fatalf("missing %v", e)
		}
	}
	if s.Len() != 3 {
		t.Fatalf("Len = %d", s.Len())
	}
}

func TestForEach(t *testing.T) {
	s := NewDefault(16)
	want := map[graph.Edge]bool{edge(0, 1): true, edge(5, 9): true}
	for e := range want {
		s.Insert(e)
	}
	got := map[graph.Edge]bool{}
	s.ForEach(func(e graph.Edge) { got[e] = true })
	if len(got) != len(want) {
		t.Fatalf("ForEach visited %d edges, want %d", len(got), len(want))
	}
	for e := range want {
		if !got[e] {
			t.Fatalf("ForEach missed %v", e)
		}
	}
}

func TestLoadFactorRespected(t *testing.T) {
	s := New(100, 0.5)
	for i := uint32(0); i < 100; i++ {
		s.Insert(edge(i, i+1))
	}
	if load := float64(s.Len()) / float64(s.Buckets()); load > 0.5 {
		t.Fatalf("load factor %.3f exceeds 0.5", load)
	}
}

func BenchmarkInsertEraseCycle(b *testing.B) {
	s := NewDefault(1 << 16)
	for i := uint32(0); i < 1<<15; i++ {
		s.Insert(edge(i, i+1<<16))
	}
	src := rng.NewSplitMix64(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u := uint32(src.Uint64() & 0xFFFF)
		e := edge(u, u+1<<17)
		s.Insert(e)
		s.Erase(e)
	}
}

func BenchmarkContains(b *testing.B) {
	s := NewDefault(1 << 16)
	for i := uint32(0); i < 1<<15; i++ {
		s.Insert(edge(i, i+1<<16))
	}
	src := rng.NewSplitMix64(1)
	b.ResetTimer()
	var hits int
	for i := 0; i < b.N; i++ {
		u := uint32(src.Uint64() & 0xFFFF)
		if s.Contains(edge(u, u+1<<16)) {
			hits++
		}
	}
	_ = hits
}

// NewDefault returns a set with the paper's default load factor 1/2.
func NewDefault(capacity int) *Set { return New(capacity, 0.5) }
