package curveball

import (
	"fmt"
	"testing"

	"gesmc/internal/gen"
	"gesmc/internal/graph"
	"gesmc/internal/rng"
)

// benchGraph is the served-stream kernel's target: 2^14 nodes with
// power-law degrees (γ = 2.2) cut off at 128 = √n.
func benchGraph(b *testing.B) *graph.Graph {
	b.Helper()
	src := rng.NewMT19937(7)
	for range 64 {
		if g, err := gen.GraphFromSequence(gen.PowerLawSequence(1<<14, 1, 128, 2.2, src)); err == nil {
			return g
		}
	}
	b.Fatal("no graphical power-law sequence in 64 draws")
	return nil
}

// BenchmarkGlobalStep times one global trade (pairing permutation,
// ⌊n/2⌋ trades, rank clear) and reports ns per trade.
func BenchmarkGlobalStep(b *testing.B) {
	g := benchGraph(b)
	for _, w := range []int{1, 2} {
		b.Run(fmt.Sprintf("w=%d", w), func(b *testing.B) {
			e := NewEngine(g, w, 1)
			defer e.Close()
			e.GlobalStep()
			b.ReportAllocs()
			for b.Loop() {
				e.GlobalStep()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*(g.N()/2)), "ns/trade")
		})
	}
}

// BenchmarkLocalStep times one Curveball superstep (⌊n/2⌋ uniform
// trades, run as maximal node-disjoint batches) on the same target and
// reports ns per trade; it runs the same trade kernel as GlobalStep.
func BenchmarkLocalStep(b *testing.B) {
	g := benchGraph(b)
	for _, w := range []int{1, 2} {
		b.Run(fmt.Sprintf("w=%d", w), func(b *testing.B) {
			e := NewEngine(g, w, 1)
			defer e.Close()
			e.LocalStep()
			b.ReportAllocs()
			for b.Loop() {
				e.LocalStep()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*(g.N()/2)), "ns/trade")
		})
	}
}

// BenchmarkWriteEdges times the write-back of all m edges into the
// target's edge list and reports ns per edge.
func BenchmarkWriteEdges(b *testing.B) {
	g := benchGraph(b)
	dst := make([]graph.Edge, g.M())
	for _, w := range []int{1, 2} {
		b.Run(fmt.Sprintf("w=%d", w), func(b *testing.B) {
			e := NewEngine(g, w, 1)
			defer e.Close()
			e.GlobalStep()
			b.ReportAllocs()
			for b.Loop() {
				e.WriteEdges(dst)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*g.M()), "ns/edge")
		})
	}
}
