package main

import (
	"fmt"

	"gesmc"
	"gesmc/internal/autocorr"
	"gesmc/internal/gen"
	"gesmc/internal/graph"
	"gesmc/internal/rng"
)

// chainLabels names the chains in the mixing tables.
var chainLabels = map[gesmc.Algorithm]string{
	gesmc.SeqES:           "ES-MC",
	gesmc.SeqGlobalES:     "G-ES-MC",
	gesmc.Curveball:       "Curveball",
	gesmc.GlobalCurveball: "G-CB",
}

// analyzeChains measures each chain's mixing on a generated graph
// through gesmc.AnalyzeMixing, the path that compiles the served chains.
// The graph is converted with gesmc.NewGraph, which keeps the edge
// order.
func analyzeChains(g *graph.Graph, algs []gesmc.Algorithm, supersteps int, seed uint64) ([]gesmc.MixingResult, error) {
	pairs := make([][2]uint32, g.M())
	for i, e := range g.Edges() {
		pairs[i] = [2]uint32{e.U(), e.V()}
	}
	pub, err := gesmc.NewGraph(g.N(), pairs)
	if err != nil {
		return nil, err
	}
	out := make([]gesmc.MixingResult, len(algs))
	for i, alg := range algs {
		if out[i], err = gesmc.AnalyzeMixing(pub, alg, supersteps, seed); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// mixingCurves prints, for every (n, gamma), each chain's mean fraction
// of non-independent edges per thinning over runs SynPld graphs drawn
// from the stream seeded by seedOf(n, gamma).
func mixingCurves(opt options, ns []int, gammas []float64, runs, supersteps int,
	seedOf func(n int, gamma float64) uint64, algs []gesmc.Algorithm) error {
	headed := false
	for _, n := range ns {
		for _, gamma := range gammas {
			src := rng.NewMT19937(seedOf(n, gamma))
			curves := make([][]gesmc.MixingResult, len(algs))
			for r := 0; r < runs; r++ {
				g, err := gen.SynPldGraph(int(float64(n)*opt.scale), gamma, src)
				if err != nil {
					return err
				}
				res, err := analyzeChains(g, algs, supersteps, src.Uint64())
				if err != nil {
					return err
				}
				for i := range algs {
					curves[i] = append(curves[i], res[i])
				}
			}
			for i, alg := range algs {
				mean := autocorr.MeanResults(curves[i])
				if !headed {
					headed = true
					fmt.Printf("%-8s %-6s %-10s | fraction of non-independent edges per thinning\n", "n", "gamma", "chain")
					header := "                            |"
					for _, k := range mean.Thinnings {
						header += fmt.Sprintf(" k=%-5d", k)
					}
					fmt.Println(header)
				}
				row := fmt.Sprintf("%-8d %-6.2f %-10s |", n, gamma, chainLabels[alg])
				for _, f := range mean.NonIndependent {
					row += fmt.Sprintf(" %-7.4f", f)
				}
				fmt.Println(row)
			}
		}
	}
	return nil
}

// fig2 reproduces Figure 2: the mean fraction of non-independent edges
// as a function of the thinning value (in supersteps) for SynPld graphs,
// comparing ES-MC and G-ES-MC. The paper's grid is
// (n, gamma) in {2^7, 2^10, 2^13} x {2.01, 2.1, 2.2, 2.5} with 40 runs;
// the scaled default uses n in {2^7, 2^9, 2^11}, 10 runs.
func fig2(opt options) error {
	ns := []int{1 << 7, 1 << 9, 1 << 11}
	runs := 10
	supersteps := 512
	if opt.quick {
		ns = []int{1 << 7}
		runs = 2
		supersteps = 32
	}
	seedOf := func(n int, gamma float64) uint64 { return opt.seed ^ uint64(n)<<16 ^ uint64(gamma*1000) }
	err := mixingCurves(opt, ns, []float64{2.01, 2.1, 2.2, 2.5}, runs, supersteps, seedOf,
		[]gesmc.Algorithm{gesmc.SeqES, gesmc.SeqGlobalES})
	if err != nil {
		return err
	}
	fmt.Println("\npaper shape: G-ES-MC <= ES-MC at every thinning; advantage grows with gamma.")
	return nil
}

// fig3 reproduces Figure 3: for every corpus graph, the first thinning
// value at which the mean fraction of non-independent edges drops below
// tau, for tau = 1e-2 and 1e-3, against edge count and density.
func fig3(opt options) error {
	minM, maxM := 500, 60000
	runs := 3
	supersteps := 256
	if opt.quick {
		maxM = 6000
		runs = 1
		supersteps = 64 // AnalyzeMixing's schedule then reaches k=8
	}
	corpus, err := gen.SweepCorpus(minM, int(float64(maxM)*opt.scale), opt.seed)
	if err != nil {
		return err
	}
	algs := []gesmc.Algorithm{gesmc.SeqES, gesmc.SeqGlobalES}

	fmt.Printf("%-18s %-8s %-10s | %-12s %-12s | %-12s %-12s\n",
		"graph", "m", "density", "ES k@1e-2", "GES k@1e-2", "ES k@1e-3", "GES k@1e-3")
	wins2, wins3, ties2, ties3, total2, total3 := 0, 0, 0, 0, 0, 0
	for _, c := range corpus {
		var es, ges []gesmc.MixingResult
		for r := 0; r < runs; r++ {
			res, err := analyzeChains(c.G, algs, supersteps, opt.seed+uint64(r)*7919)
			if err != nil {
				return err
			}
			es, ges = append(es, res[0]), append(ges, res[1])
		}
		esMean := autocorr.MeanResults(es)
		gesMean := autocorr.MeanResults(ges)
		e2, g2 := esMean.FirstThinningBelow(1e-2), gesMean.FirstThinningBelow(1e-2)
		e3, g3 := esMean.FirstThinningBelow(1e-3), gesMean.FirstThinningBelow(1e-3)
		fmt.Printf("%-18s %-8d %-10.2e | %-12s %-12s | %-12s %-12s\n",
			c.Name, c.G.M(), c.G.Density(), fmtThin(e2), fmtThin(g2), fmtThin(e3), fmtThin(g3))
		if e2 > 0 && g2 > 0 {
			total2++
			if g2 < e2 {
				wins2++
			} else if g2 == e2 {
				ties2++
			}
		}
		if e3 > 0 && g3 > 0 {
			total3++
			if g3 < e3 {
				wins3++
			} else if g3 == e3 {
				ties3++
			}
		}
	}
	fmt.Printf("\nG-ES-MC faster-or-equal at tau=1e-2 on %d+%d of %d comparable graphs; at tau=1e-3 on %d+%d of %d.\n",
		wins2, ties2, total2, wins3, ties3, total3)
	fmt.Println("paper shape: G-ES-MC outperforms ES-MC except on very dense graphs.")
	return nil
}

func fmtThin(k int) string {
	if k == 0 {
		return ">max"
	}
	return fmt.Sprintf("%d", k)
}
