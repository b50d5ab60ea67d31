// Scaling: compare the public chains on one graph and sweep the worker
// count of every parallel chain — a miniature of the paper's Table 4
// and Figure 6 through the public API (the data-structure baselines of
// Table 4 run only in cmd/experiments). Every run goes through a
// Sampler, so the comparison covers exactly the code path production
// callers use. With the unified superstep kernel the sweep now covers
// undirected ParGlobalES, the directed/bipartite ParGlobalES, and the
// parallel Global Curveball: all three execute through the same kernel
// and report the same rounds instrumentation.
package main

import (
	"fmt"
	"log"
	"runtime"

	"gesmc"
)

func main() {
	g, err := gesmc.GeneratePowerLaw(1<<15, 2.2, 7)
	if err != nil {
		log.Fatal(err)
	}
	// A directed companion workload with the same scale: a 6-regular
	// bi-degree sequence realized as a bipartite digraph.
	dg, err := gesmc.FromBipartiteDegrees(repeat(6, 1<<12), repeat(6, 1<<12))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("workload: n=%d m=%d dmax=%d; directed: n=%d m=%d (20 supersteps each)\n\n",
		g.N(), g.M(), g.MaxDegree(), dg.N(), dg.M())

	run := func(target gesmc.Target, alg gesmc.Algorithm, workers int) gesmc.Stats {
		s, err := gesmc.NewSampler(target,
			gesmc.WithAlgorithm(alg),
			gesmc.WithWorkers(workers),
			gesmc.WithSeed(5),
		)
		if err != nil {
			log.Fatal(err)
		}
		stats, err := s.Step(20)
		if err != nil {
			log.Fatal(err)
		}
		return stats
	}

	fmt.Println("algorithm comparison (P=1):")
	for _, alg := range gesmc.Algorithms() {
		if alg == gesmc.Exact {
			continue // not a chain, and this power-law tail is outside its regime
		}
		stats := run(g.Clone(), alg, 1)
		fmt.Printf("  %-16s %10v  acceptance=%.3f\n",
			stats.Algorithm, stats.Duration.Round(10_000), float64(stats.Accepted)/float64(stats.Attempted))
	}

	maxP := runtime.GOMAXPROCS(0) * 4 // oversubscribe to show the trend even on small hosts
	sweep := func(label string, target func() gesmc.Target, alg gesmc.Algorithm) {
		fmt.Printf("\n%s worker sweep:\n", label)
		var base float64
		for p := 1; p <= maxP; p *= 2 {
			stats := run(target(), alg, p)
			secs := stats.Duration.Seconds()
			if p == 1 {
				base = secs
			}
			fmt.Printf("  P=%-3d %10v  self-speedup=%.2f  rounds(avg=%.2f,max=%d)\n",
				p, stats.Duration.Round(10_000), base/secs, stats.AvgRounds, stats.MaxRounds)
		}
	}
	sweep("ParGlobalES (undirected)", func() gesmc.Target { return g.Clone() }, gesmc.ParGlobalES)
	sweep("ParGlobalES (directed/bipartite)", func() gesmc.Target { return dg.Clone() }, gesmc.ParGlobalES)
	sweep("GlobalCurveball (parallel trades)", func() gesmc.Target { return g.Clone() }, gesmc.GlobalCurveball)

	fmt.Printf("\n(%d hardware threads available; speed-up saturates there)\n", runtime.NumCPU())
}

func repeat(v, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = v
	}
	return out
}
