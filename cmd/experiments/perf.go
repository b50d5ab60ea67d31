package main

import (
	"fmt"
	"time"

	"gesmc/internal/core"
	"gesmc/internal/gen"
	"gesmc/internal/graph"
	"gesmc/internal/rng"
)

// timeRun clones g, runs the algorithm for the given supersteps, and
// returns the elapsed time and stats.
func timeRun(g *graph.Graph, alg core.Algorithm, supersteps int, cfg core.Config) (time.Duration, *core.RunStats, error) {
	c := g.Clone()
	start := time.Now()
	stats, err := core.Run(c, alg, supersteps, cfg)
	return time.Since(start), stats, err
}

// table4 reproduces Table 4 (Figure 4): absolute runtimes of all
// implementations for 20 supersteps on the corpus sample, at P=1 and
// P=max. The two adjacency-list baselines stand in for NetworKit and
// Gengraph (DESIGN.md).
func table4(opt options) error {
	supersteps := 20
	scale := opt.scale
	if opt.quick {
		supersteps = 4
		scale *= 0.25
	}
	corpus, err := gen.Table4Corpus(scale, opt.seed)
	if err != nil {
		return err
	}
	pMax := opt.workers

	seqAlgs := []core.Algorithm{
		core.AlgAdjListES, core.AlgAdjSortES, core.AlgSeqES, core.AlgSeqGlobalES,
	}
	parAlgs := []core.Algorithm{core.AlgNaiveParES, core.AlgParGlobalES}

	fmt.Printf("%-20s %-9s %-9s %-6s |", "graph", "n", "m", "dmax")
	for _, a := range seqAlgs {
		fmt.Printf(" %-10s", a)
	}
	for _, a := range parAlgs {
		fmt.Printf(" %-11s", fmt.Sprintf("%s/P1", shortName(a)))
	}
	for _, a := range parAlgs {
		fmt.Printf(" %-11s", fmt.Sprintf("%s/P%d", shortName(a), pMax))
	}
	fmt.Println()

	for _, c := range corpus {
		fmt.Printf("%-20s %-9d %-9d %-6d |", c.Name, c.G.N(), c.G.M(), c.G.MaxDegree())
		for _, a := range seqAlgs {
			d, _, err := timeRun(c.G, a, supersteps, core.Config{Seed: opt.seed})
			if err != nil {
				return err
			}
			fmt.Printf(" %-10s", fmtDur(d))
		}
		for _, a := range parAlgs {
			d, _, err := timeRun(c.G, a, supersteps, core.Config{Seed: opt.seed, Workers: 1})
			if err != nil {
				return err
			}
			fmt.Printf(" %-11s", fmtDur(d))
		}
		for _, a := range parAlgs {
			d, _, err := timeRun(c.G, a, supersteps, core.Config{Seed: opt.seed, Workers: pMax})
			if err != nil {
				return err
			}
			fmt.Printf(" %-11s", fmtDur(d))
		}
		fmt.Println()
	}
	fmt.Println("\npaper shape: hash-set implementations beat adjacency-list baselines by ~5-50x;")
	fmt.Println("SeqGlobalES ~ SeqES (faster on large graphs); exact ParGlobalES within 2x of NaiveParES.")
	return nil
}

func shortName(a core.Algorithm) string {
	switch a {
	case core.AlgNaiveParES:
		return "Naive"
	case core.AlgParGlobalES:
		return "ParGES"
	case core.AlgParES:
		return "ParES"
	default:
		return a.String()
	}
}

func fmtDur(d time.Duration) string {
	switch {
	case d < time.Millisecond:
		return fmt.Sprintf("%.0fus", float64(d)/float64(time.Microsecond))
	case d < time.Second:
		return fmt.Sprintf("%.1fms", float64(d)/float64(time.Millisecond))
	default:
		return fmt.Sprintf("%.2fs", d.Seconds())
	}
}

// fig5 reproduces Figure 5: runtimes of SeqES, SeqGlobalES (P=1) and
// ParGlobalES (P=max) over the corpus, and the speed-up of ParGlobalES
// over SeqGlobalES.
func fig5(opt options) error {
	supersteps := 20
	minM := 5000
	maxM := 200000
	if opt.quick {
		supersteps = 4
		maxM = 20000
	}
	corpus, err := gen.SweepCorpus(minM, int(float64(maxM)*opt.scale), opt.seed)
	if err != nil {
		return err
	}

	fmt.Printf("%-18s %-9s | %-10s %-10s %-8s spdup\n", "graph", "m", "SeqES", "SeqGES", "ParGES")
	for _, c := range corpus {
		dSeq, _, err := timeRun(c.G, core.AlgSeqES, supersteps, core.Config{Seed: opt.seed})
		if err != nil {
			return err
		}
		dSeqG, _, err := timeRun(c.G, core.AlgSeqGlobalES, supersteps, core.Config{Seed: opt.seed})
		if err != nil {
			return err
		}
		dPar, _, err := timeRun(c.G, core.AlgParGlobalES, supersteps, core.Config{Seed: opt.seed, Workers: opt.workers})
		if err != nil {
			return err
		}
		fmt.Printf("%-18s %-9d | %-10s %-10s %-8s %-5.2f\n", c.Name, c.G.M(),
			fmtDur(dSeq), fmtDur(dSeqG), fmtDur(dPar), float64(dSeqG)/float64(dPar))
	}
	fmt.Println("\npaper shape: speed-up grows with graph size (paper: up to ~12x at P=32;")
	fmt.Printf("this host has %d hardware thread(s), so wall-clock speed-up is bounded accordingly).\n", opt.workers)
	return nil
}

// fig6 reproduces Figure 6: strong self-scaling of ParGlobalES over the
// corpus sample for P = 1 .. workers.
func fig6(opt options) error {
	supersteps := 20
	scale := opt.scale
	if opt.quick {
		supersteps = 4
		scale *= 0.25
	}
	corpus, err := gen.Table4Corpus(scale, opt.seed)
	if err != nil {
		return err
	}
	var ps []int
	for p := 1; p <= opt.workers; p *= 2 {
		ps = append(ps, p)
	}

	fmt.Printf("%-20s %-9s |", "graph", "m")
	for _, p := range ps {
		fmt.Printf(" P=%-7d", p)
	}
	fmt.Println(" (self speed-up vs P=1)")
	for _, c := range corpus {
		base, _, err := timeRun(c.G, core.AlgParGlobalES, supersteps, core.Config{Seed: opt.seed, Workers: 1})
		if err != nil {
			return err
		}
		fmt.Printf("%-20s %-9d |", c.Name, c.G.M())
		for _, p := range ps {
			d, _, err := timeRun(c.G, core.AlgParGlobalES, supersteps, core.Config{Seed: opt.seed, Workers: p})
			if err != nil {
				return err
			}
			fmt.Printf(" %-9.2f", float64(base)/float64(d))
		}
		fmt.Println()
	}
	fmt.Println("\npaper shape: speed-up 20-30x at 32-64 PUs on large graphs; flat on tiny graphs.")
	fmt.Printf("(this host has %d hardware thread(s); with 1, the sweep measures overhead only.)\n", opt.workers)
	return nil
}

// fig7 reproduces Figure 7: ParGlobalES runtime on G(n,p) graphs with a
// fixed edge budget as a function of the average degree 2m/n.
func fig7(opt options) error {
	supersteps := 20
	ms := []int{1 << 16, 1 << 18}
	if opt.quick {
		supersteps = 4
		ms = []int{1 << 14}
	}
	fmt.Printf("%-10s %-10s %-12s %-12s %-10s\n", "m", "n", "avg-degree", "runtime", "rounds/gs")
	for _, m0 := range ms {
		m := int(float64(m0) * opt.scale)
		for _, avg := range []float64{8, 32, 128, 512} {
			n := int(2 * float64(m) / avg)
			if n < 64 || n > graph.MaxNodes {
				continue
			}
			src := rng.NewMT19937(opt.seed + uint64(n))
			g := gen.GNPWithEdges(n, m, src)
			if g.M() < 2 {
				continue
			}
			d, stats, err := timeRun(g, core.AlgParGlobalES, supersteps, core.Config{Seed: opt.seed, Workers: opt.workers})
			if err != nil {
				return err
			}
			fmt.Printf("%-10d %-10d %-12.1f %-12s %-10.2f\n",
				g.M(), n, g.AverageDegree(), fmtDur(d), stats.AvgRounds())
		}
	}
	fmt.Println("\npaper shape: runtime depends on m, not on density/average degree (Theorem 2:")
	fmt.Println("G(n,p) is near-regular, so rounds per global switch stay constant).")
	return nil
}

// fig8 reproduces Figure 8: ParGlobalES runtime per edge on SynPld
// graphs as a function of the degree exponent gamma.
func fig8(opt options) error {
	supersteps := 20
	ns := []int{1 << 14, 1 << 16}
	if opt.quick {
		supersteps = 4
		ns = []int{1 << 12}
	}
	gammas := []float64{2.01, 2.2, 2.4, 2.6, 2.8, 3.0}
	fmt.Printf("%-10s %-6s %-10s %-14s %-10s\n", "n", "gamma", "m", "ns/edge", "rounds/gs")
	for _, n0 := range ns {
		n := int(float64(n0) * opt.scale)
		for _, gamma := range gammas {
			src := rng.NewMT19937(opt.seed*31 + uint64(gamma*100))
			g, err := gen.SynPldGraph(n, gamma, src)
			if err != nil {
				return err
			}
			d, stats, err := timeRun(g, core.AlgParGlobalES, supersteps, core.Config{Seed: opt.seed, Workers: opt.workers})
			if err != nil {
				return err
			}
			perEdge := float64(d.Nanoseconds()) / float64(g.M()) / float64(supersteps)
			fmt.Printf("%-10d %-6.2f %-10d %-14.1f %-10.2f\n", n, gamma, g.M(), perEdge, stats.AvgRounds())
		}
	}
	fmt.Println("\npaper shape: runtime/edge increases slightly as gamma -> 2 (more target")
	fmt.Println("dependencies, Theorem 3) and is otherwise flat in gamma.")
	return nil
}

// fig9 reproduces Figure 9: average rounds per global switch and the
// fraction of runtime spent beyond the first round, per corpus graph.
func fig9(opt options) error {
	globalSwitches := 20
	scale := opt.scale
	if opt.quick {
		globalSwitches = 5
		scale *= 0.25
	}
	corpus, err := gen.Table4Corpus(scale, opt.seed)
	if err != nil {
		return err
	}
	fmt.Printf("%-20s %-9s %-9s %-12s %-10s %-16s\n",
		"graph", "m", "dmax", "avg rounds", "max", "late-round time")
	for _, c := range corpus {
		// PessimisticRounds measures the worst-case-scheduler rounds of
		// Theorems 2-3; with natural scheduling on few cores nearly all
		// switches decide in round 1.
		_, stats, err := timeRun(c.G, core.AlgParGlobalES, globalSwitches,
			core.Config{Seed: opt.seed, Workers: opt.workers, PessimisticRounds: true})
		if err != nil {
			return err
		}
		late := 0.0
		if tot := stats.FirstRoundTime + stats.LaterRoundsTime; tot > 0 {
			late = float64(stats.LaterRoundsTime) / float64(tot)
		}
		fmt.Printf("%-20s %-9d %-9d %-12.2f %-10d %-15.4f%%\n",
			c.Name, c.G.M(), c.G.MaxDegree(), stats.AvgRounds(), stats.MaxRounds, 100*late)
	}
	fmt.Println("\npaper shape: ~2.2 rounds per global switch on average, max ~8; rounds after")
	fmt.Println("the first account for <1% of runtime on graphs with >4M edges.")
	return nil
}
