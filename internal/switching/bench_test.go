package switching_test

import (
	"fmt"
	"testing"

	"gesmc/internal/gen"
	"gesmc/internal/graph"
	"gesmc/internal/rng"
	"gesmc/internal/switching"
)

// burninGraph is a target of the burn-in family: 2^16 nodes with
// power-law degrees (γ = 2.2) cut off at 256 = √n, about 1.2·10^5
// edges.
func burninGraph(b *testing.B) *graph.Graph {
	b.Helper()
	src := rng.NewMT19937(11)
	for range 64 {
		if g, err := gen.GraphFromSequence(gen.PowerLawSequence(1<<16, 1, 256, 2.2, src)); err == nil {
			return g
		}
	}
	b.Fatal("no graphical power-law sequence in 64 draws")
	return nil
}

// BenchmarkGlobalSuperstep times one ParGlobalES superstep on a
// burn-in target — the physical shuffle, phase 1, the decide rounds
// and the commit — and reports ns per switch attempt (⌊m/2⌋ per
// superstep at the default loop probability).
func BenchmarkGlobalSuperstep(b *testing.B) {
	g := burninGraph(b)
	m := g.M()
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("w=%d", w), func(b *testing.B) {
			edges := append([]graph.Edge(nil), g.Edges()...)
			r := switching.NewRunner(edges, m/2, w)
			s := switching.NewGlobalStepper(r, 1, 0xA5A5A5A5A5A5A5A5, 1e-6, nil)
			defer s.Release()
			var st switching.Stats
			s.Step(&st)
			b.ReportAllocs()
			for b.Loop() {
				s.Step(&st)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*(m/2)), "ns/switch")
		})
	}
}
