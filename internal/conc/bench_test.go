package conc

import (
	"testing"

	"gesmc/internal/graph"
)

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
