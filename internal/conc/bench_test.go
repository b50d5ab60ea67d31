package conc

import (
	"testing"

	"gesmc/internal/graph"
)

// BenchmarkDepTableStoreLookup is one superstep of the table on one
// goroutine, the way the kernel drives it: register four tuples per
// switch (two erases from the source list and an insert of distinct
// edges, plus an insert shared by about 42 switches), the merge and
// link passes, then the decide step's lookups — Unique for both
// targets, Probe where the slot is shared.
func BenchmarkDepTableStoreLookup(b *testing.B) {
	const n = 1 << 12
	dt := NewDepTable[graph.Edge](n, 2*n, 1)
	dt.SetSequential(true)
	src := make([]graph.Edge, 2*n)
	for k := 0; k < n; k++ {
		src[2*k] = edge(uint32(2*k), uint32(2*k+1))
		src[2*k+1] = edge(uint32(2*k+1), uint32(2*k+2))
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		dt.Reset(src, n)
		for k := 0; k < n; k++ {
			markSwitch(dt, 0, k, edge(uint32(k%97), uint32(1000+k%97)), edge(uint32(2*k), uint32(1<<20+k)))
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
