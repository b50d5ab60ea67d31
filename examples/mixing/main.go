// Mixing diagnostics: how many supersteps does the chain need before
// samples decorrelate from the input graph? This example runs the
// paper's §6.1 autocorrelation/BIC analysis (Figure 2's methodology)
// through the public API on the served chains, comparing ES-MC, G-ES-MC
// and Global Curveball on one graph, and then feeds the thinning
// measured on ParGlobalES straight into a ParGlobalES ensemble Sampler
// — the intended division of labor: AnalyzeMixing calibrates,
// WithThinning applies.
package main

import (
	"context"
	"fmt"
	"log"

	"gesmc"
)

func main() {
	g, err := gesmc.GeneratePowerLaw(1<<10, 2.2, 11)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("graph: n=%d m=%d max-degree=%d\n\n", g.N(), g.M(), g.MaxDegree())

	const supersteps = 256
	algs := []gesmc.Algorithm{gesmc.SeqES, gesmc.ParGlobalES, gesmc.GlobalCurveball}
	curves := make([]gesmc.MixingResult, len(algs))
	for i, alg := range algs {
		if curves[i], err = gesmc.AnalyzeMixing(g, alg, supersteps, 1); err != nil {
			log.Fatal(err)
		}
	}
	es, ges, gcb := curves[0], curves[1], curves[2]

	fmt.Println("fraction of edges still autocorrelated (lower = better mixed):")
	fmt.Printf("%-12s %-10s %-10s %-10s\n", "thinning k", "ES-MC", "G-ES-MC", "G-CB")
	for i, k := range es.Thinnings {
		fmt.Printf("%-12d %-10.4f %-10.4f %-10.4f\n", k, es.NonIndependent[i], ges.NonIndependent[i], gcb.NonIndependent[i])
	}

	// The BIC decision has a small false-positive floor at finite run
	// lengths, so compare against a threshold above it.
	const tau = 0.05
	thinES, thinGES := es.FirstThinningBelow(tau), ges.FirstThinningBelow(tau)
	fmt.Printf("\nfirst thinning below %.2f: ES-MC at k=%d, G-ES-MC at k=%d, G-CB at k=%d\n",
		tau, thinES, thinGES, gcb.FirstThinningBelow(tau))
	fmt.Println("(the paper's Figure 2/3 result: G-ES-MC needs fewer supersteps than ES-MC;")
	fmt.Println(" a served global trade, per superstep, decorrelates slowest of the three)")

	// Apply the measurement: draw an ensemble thinned at exactly the
	// empirically sufficient interval instead of a full burn-in per
	// sample.
	if thinGES == 0 {
		log.Fatal("chain did not decorrelate within the analyzed window")
	}
	sampler, err := gesmc.NewSampler(g,
		gesmc.WithAlgorithm(gesmc.ParGlobalES),
		gesmc.WithWorkers(2),
		gesmc.WithThinning(thinGES),
		gesmc.WithSeed(7),
	)
	if err != nil {
		log.Fatal(err)
	}
	const count = 10
	samples, err := sampler.Collect(context.Background(), count)
	if err != nil {
		log.Fatal(err)
	}
	burnIn := sampler.BurnIn()
	fmt.Printf("\ndrew %d samples in %d supersteps (burn-in %d + %d x thinning %d)\n",
		len(samples), sampler.Supersteps(), burnIn, count-1, thinGES)
	fmt.Printf("vs %d supersteps for %d one-shot samplers — %.1fx fewer\n",
		count*burnIn, count,
		float64(count*burnIn)/float64(sampler.Supersteps()))
}
