package conc

import (
	"runtime"
	"testing"

	"gesmc/internal/graph"
	"gesmc/internal/rng"
)

func BenchmarkEdgeSetContains(b *testing.B) {
	s := NewEdgeSet(1<<16, 2)
	for i := uint32(0); i < 1<<15; i++ {
		s.InsertUnique(edge(i, i+1<<16), 0)
	}
	src := rng.NewSplitMix64(1)
	b.ResetTimer()
	hits := 0
	for i := 0; i < b.N; i++ {
		u := uint32(src.Uint64() & 0xFFFF)
		if s.Contains(edge(u, u+1<<16)) {
			hits++
		}
	}
	_ = hits
}

func BenchmarkEdgeSetInsertEraseUnique(b *testing.B) {
	s := NewEdgeSet(1<<16, 2)
	src := rng.NewSplitMix64(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u := uint32(src.Uint64()&0xFFFF) + 1<<18
		e := edge(u, u+1<<19)
		s.InsertUnique(e, 0)
		s.EraseUnique(e, 0)
	}
}

// BenchmarkDepTableStoreLookup is one superstep of the table on one
// goroutine, the way the kernel drives it: register four tuples per
// switch (two erases and an insert of distinct edges, plus an insert
// shared by about 42 switches), the merge and link passes, then the
// decide step's lookups — Unique for both targets, Probe where the
// slot is shared.
func BenchmarkDepTableStoreLookup(b *testing.B) {
	const n = 1 << 12
	dt := NewDepTable(n, 1)
	dt.SetSequential(true)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		dt.Reset(n, 0)
		for k := 0; k < n; k++ {
			dt.Store(0, k, 0, edge(uint32(2*k), uint32(2*k+1)), KindErase)
			dt.Store(0, k, 1, edge(uint32(2*k+1), uint32(2*k+2)), KindErase)
			dt.Store(0, k, 2, edge(uint32(k%97), uint32(1000+k%97)), KindInsert)
			dt.Store(0, k, 3, edge(uint32(2*k), uint32(1<<20+k)), KindInsert)
		}
		for _, ps := range dt.IndexPasses() {
			ps.Fn(0, 0, ps.N)
		}
		for k := 0; k < n; k++ {
			for _, e := range [2]graph.Edge{edge(uint32(k%97), uint32(1000+k%97)), edge(uint32(2*k), uint32(1<<20+k))} {
				if !dt.Unique(e) {
					dt.Probe(e)
				}
			}
		}
	}
	b.SetBytes(n * 4)
}

// BenchmarkEdgeSetApply is the kernel's apply phase in isolation, shaped
// like switching.Runner's phase3Erase/commit: one fused dispatch on
// a Pool gang of GOMAXPROCS workers (set with -cpu) erases two edges per
// item, sub-barriers, then inserts two disjoint edges per item. Odd
// iterations move the edges back, so the set stays at 2^16 live edges in
// a table beyond L2; compaction runs off the clock. One op is one apply
// of 2^14 items; ns/item divides it by the items.
func BenchmarkEdgeSetApply(b *testing.B) {
	const live = 1 << 16
	const items = live / 4
	w := runtime.GOMAXPROCS(0)
	p := NewPool(w)
	defer p.Close()
	s := NewEdgeSet(2*live, w)
	s.SetSequential(w == 1)
	edges := make([]graph.Edge, live)
	moved := make([]graph.Edge, 2*items)
	for i := range edges {
		edges[i] = edge(uint32(i), uint32(i+1<<20))
	}
	for i := range moved {
		moved[i] = edge(uint32(i), uint32(i+1<<21))
	}
	for _, e := range edges {
		s.InsertUnique(e, 0)
	}
	from, to := edges[:2*items], moved
	plan := FusedPlan{Passes: []FusedPass{
		{N: items, Fn: func(w, lo, hi int) {
			for k := lo; k < hi; k++ {
				s.EraseUnique(from[2*k], w)
				s.EraseUnique(from[2*k+1], w)
			}
		}},
		{N: items, Fn: func(w, lo, hi int) {
			for k := lo; k < hi; k++ {
				s.InsertUnique(to[2*k], w)
				s.InsertUnique(to[2*k+1], w)
			}
		}},
	}}
	current := make([]graph.Edge, live)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Fused(&plan)
		from, to = to, from
		if s.NeedsCompact() {
			b.StopTimer()
			copy(current, edges)
			copy(current, from)
			compact(s, current)
			b.StartTimer()
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/items, "ns/item")
}
