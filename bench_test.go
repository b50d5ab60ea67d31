// Benchmarks regenerating the paper's tables and figures as testing.B
// targets: run `go test -bench=. -benchmem` (see DESIGN.md §5 for the
// experiment index and cmd/experiments for the full drivers with the
// paper's output format).
package gesmc

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"gesmc/internal/core"
	"gesmc/internal/gen"
	"gesmc/internal/graph"
	"gesmc/internal/rng"
)

// Shared benchmark workloads, generated once.
var (
	benchOnce sync.Once
	benchPld  *graph.Graph // power-law, the "social network" workload
	benchGnp  *graph.Graph // near-regular G(n,p)
	benchRoad *graph.Graph // grid, the road-network workload
)

func benchGraphs(b *testing.B) (*graph.Graph, *graph.Graph, *graph.Graph) {
	b.Helper()
	benchOnce.Do(func() {
		src := rng.NewMT19937(12345)
		var err error
		benchPld, err = gen.SynPldGraph(1<<14, 2.1, src)
		if err != nil {
			panic(err)
		}
		benchGnp = gen.GNP(1<<13, 16.0/float64(1<<13), src)
		benchRoad = gen.Grid2D(128, 128)
	})
	return benchPld, benchGnp, benchRoad
}

func runAlg(b *testing.B, g *graph.Graph, alg core.Algorithm, supersteps int, cfg core.Config) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c := g.Clone()
		if _, err := core.Run(c, alg, supersteps, cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(g.M()) * 8 * int64(supersteps))
}

// BenchmarkTable4 regenerates the served-chain columns of Table 4
// (Figure 4): 20 supersteps on the power-law workload; P=1 and P=4
// variants for the parallel implementations. The evaluation-only
// baselines (NaiveParES, AdjListES, AdjSortES) live in cmd/experiments,
// whose BenchmarkTable4Baselines times them on the same workload.
func BenchmarkTable4(b *testing.B) {
	pld, _, _ := benchGraphs(b)
	for _, alg := range []core.Algorithm{core.AlgSeqES, core.AlgSeqGlobalES} {
		b.Run(alg.String(), func(b *testing.B) {
			runAlg(b, pld, alg, 20, core.Config{Seed: 1})
		})
	}
	for _, alg := range []core.Algorithm{core.AlgParES, core.AlgParGlobalES} {
		for _, p := range []int{1, 4} {
			b.Run(fmt.Sprintf("%s/P%d", alg, p), func(b *testing.B) {
				runAlg(b, pld, alg, 20, core.Config{Seed: 1, Workers: p})
			})
		}
	}
}

// BenchmarkFig2Autocorr regenerates the Figure 2 measurement kernel: the
// autocorrelation analysis of ES-MC vs G-ES-MC on a SynPld graph.
func BenchmarkFig2Autocorr(b *testing.B) {
	src := rng.NewMT19937(2)
	g, err := gen.SynPldGraph(1<<7, 2.1, src)
	if err != nil {
		b.Fatal(err)
	}
	for _, alg := range []Algorithm{SeqES, SeqGlobalES} {
		b.Run(alg.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := AnalyzeMixing(&Graph{g: g}, alg, 48, uint64(i)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig5 regenerates the Figure 5 comparison: SeqES and
// SeqGlobalES against ParGlobalES (the speed-up is the ratio of the
// SeqGlobalES and ParGlobalES times).
func BenchmarkFig5(b *testing.B) {
	pld, _, _ := benchGraphs(b)
	b.Run("SeqES", func(b *testing.B) {
		runAlg(b, pld, core.AlgSeqES, 20, core.Config{Seed: 1})
	})
	b.Run("SeqGlobalES", func(b *testing.B) {
		runAlg(b, pld, core.AlgSeqGlobalES, 20, core.Config{Seed: 1})
	})
	b.Run("ParGlobalES", func(b *testing.B) {
		runAlg(b, pld, core.AlgParGlobalES, 20, core.Config{Seed: 1, Workers: 4})
	})
}

// BenchmarkFig6Scaling regenerates Figure 6: ParGlobalES across worker
// counts (self speed-up is the inverse ratio of the reported times).
func BenchmarkFig6Scaling(b *testing.B) {
	pld, _, _ := benchGraphs(b)
	for _, p := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("P=%d", p), func(b *testing.B) {
			runAlg(b, pld, core.AlgParGlobalES, 20, core.Config{Seed: 1, Workers: p})
		})
	}
}

// BenchmarkFig7Density regenerates Figure 7: ParGlobalES on G(n,p) with
// a fixed edge budget and varying average degree.
func BenchmarkFig7Density(b *testing.B) {
	const m = 1 << 15
	for _, avg := range []float64{8, 64, 512} {
		n := int(2 * float64(m) / avg)
		src := rng.NewMT19937(uint64(n))
		g := gen.GNPWithEdges(n, m, src)
		b.Run(fmt.Sprintf("avgdeg=%.0f", avg), func(b *testing.B) {
			runAlg(b, g, core.AlgParGlobalES, 20, core.Config{Seed: 1, Workers: 4})
		})
	}
}

// BenchmarkFig8Gamma regenerates Figure 8: ParGlobalES runtime per edge
// across power-law exponents.
func BenchmarkFig8Gamma(b *testing.B) {
	for _, gamma := range []float64{2.01, 2.5, 3.0} {
		src := rng.NewMT19937(uint64(gamma * 1000))
		g, err := gen.SynPldGraph(1<<13, gamma, src)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("gamma=%.2f", gamma), func(b *testing.B) {
			runAlg(b, g, core.AlgParGlobalES, 20, core.Config{Seed: 1, Workers: 4})
		})
	}
}

// BenchmarkFig9Rounds regenerates Figure 9's kernel: global switches
// under the worst-case scheduler, whose round counts the paper bounds
// (road graph: near-regular, few rounds; power law: more rounds).
func BenchmarkFig9Rounds(b *testing.B) {
	pld, _, road := benchGraphs(b)
	for _, w := range []struct {
		name string
		g    *graph.Graph
	}{{"powerlaw", pld}, {"road", road}} {
		b.Run(w.name, func(b *testing.B) {
			b.ReportAllocs()
			var rounds int64
			var steps int
			for i := 0; i < b.N; i++ {
				c := w.g.Clone()
				stats, err := core.Run(c, core.AlgParGlobalES, 5,
					core.Config{Seed: 1, Workers: 4, PessimisticRounds: true})
				if err != nil {
					b.Fatal(err)
				}
				rounds += stats.TotalRounds
				steps += stats.InternalSupersteps
			}
			b.ReportMetric(float64(rounds)/float64(steps), "rounds/superstep")
		})
	}
}

// BenchmarkAblationPermutation compares the sequential Fisher-Yates
// shuffle with the parallel scatter shuffle that feeds ParGlobalES.
func BenchmarkAblationPermutation(b *testing.B) {
	const n = 1 << 18
	b.Run("sequential", func(b *testing.B) {
		src := rng.NewMT19937(1)
		for i := 0; i < b.N; i++ {
			rng.Perm(src, n)
		}
	})
	b.Run("parallel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rng.ParallelPerm(uint64(i), n)
		}
	})
}

// BenchmarkEnsemble compares the two ways of drawing an ensemble of k
// degree-preserving samples from one graph: k independent one-shot
// Samplers (each paying engine construction plus a full burn-in)
// against one reused Sampler (one construction, one burn-in, then a
// sample every thinning interval). The "reused" variant matches the
// one-shot superstep count per sample to isolate the engine-state
// amortization; "reused-thinned" additionally uses a shorter thinning,
// the configuration AnalyzeMixing justifies and Ensemble is built for.
func BenchmarkEnsemble(b *testing.B) {
	const (
		samples = 8
		burnIn  = 20
		thin    = 4
	)
	base, err := GeneratePowerLaw(1<<12, 2.5, 3)
	if err != nil {
		b.Fatal(err)
	}
	bytesPerSample := int64(base.M()) * 8 * samples

	b.Run("oneshot", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for s := 0; s < samples; s++ {
				c := base.Clone()
				if _, err := stepOnce(c, burnIn,
					WithAlgorithm(ParGlobalES), WithWorkers(2), WithSeed(uint64(s))); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.SetBytes(bytesPerSample)
	})
	b.Run("reused", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s, err := NewSampler(base.Clone(),
				WithAlgorithm(ParGlobalES), WithWorkers(2), WithSeed(uint64(i)),
				WithBurnIn(burnIn), WithThinning(burnIn))
			if err != nil {
				b.Fatal(err)
			}
			if _, err := s.Collect(context.Background(), samples); err != nil {
				b.Fatal(err)
			}
		}
		b.SetBytes(bytesPerSample)
	})
	b.Run("reused-thinned", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s, err := NewSampler(base.Clone(),
				WithAlgorithm(ParGlobalES), WithWorkers(2), WithSeed(uint64(i)),
				WithBurnIn(burnIn), WithThinning(thin))
			if err != nil {
				b.Fatal(err)
			}
			if _, err := s.Collect(context.Background(), samples); err != nil {
				b.Fatal(err)
			}
		}
		b.SetBytes(bytesPerSample)
	})
}

// BenchmarkPublicAPI measures the end-to-end public entry point.
func BenchmarkPublicAPI(b *testing.B) {
	g, err := GeneratePowerLaw(1<<12, 2.5, 3)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c := g.Clone()
		if _, err := stepOnce(c, 20, WithAlgorithm(ParGlobalES), WithWorkers(2), WithSeed(uint64(i))); err != nil {
			b.Fatal(err)
		}
	}
}
