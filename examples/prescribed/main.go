// Prescribed-degree sampling: generate many graphs with one explicit
// degree sequence and verify empirically that the sampler is close to
// uniform, by exhaustively counting the visits to every realization of a
// tiny sequence.
package main

import (
	"context"
	"fmt"
	"log"
	"sort"
	"strings"

	"gesmc"
)

func main() {
	// Part 1: a realistic sequence, realized once and burned in by a
	// one-shot sampler.
	degrees := []int{7, 6, 5, 4, 4, 3, 3, 3, 2, 2, 2, 2, 2, 1, 1, 1}
	if !gesmc.IsGraphical(degrees) {
		log.Fatal("sequence is not graphical")
	}
	g, err := gesmc.FromDegrees(degrees)
	if err != nil {
		log.Fatal(err)
	}
	once, err := gesmc.NewSampler(g,
		gesmc.WithAlgorithm(gesmc.ParGlobalES),
		gesmc.WithWorkers(2),
		gesmc.WithSeed(3),
	)
	if err != nil {
		log.Fatal(err)
	}
	stats, err := once.Sample()
	once.Close()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("sampled graph with degrees %v\n", g.Degrees())
	fmt.Printf("(%d/%d switches accepted, %v)\n\n", stats.Accepted, stats.Attempted, stats.Duration)

	// Part 2: empirical uniformity on the 15 perfect matchings of K6
	// (degree sequence 1,1,1,1,1,1) — the smallest state space where
	// uniformity is easy to see by eye. One Sampler streams the whole
	// ensemble: the matching is realized once (Havel-Hakimi) and the
	// chain never restarts, so the 25-superstep thinning between
	// samples is the entire per-sample cost.
	const runs = 6000
	start, err := gesmc.FromDegrees([]int{1, 1, 1, 1, 1, 1})
	if err != nil {
		log.Fatal(err)
	}
	sampler, err := gesmc.NewSampler(start,
		gesmc.WithAlgorithm(gesmc.SeqGlobalES),
		gesmc.WithBurnIn(25),
		gesmc.WithThinning(25),
		gesmc.WithLoopProb(0.05),
		gesmc.WithSeed(99),
	)
	if err != nil {
		log.Fatal(err)
	}
	counts := map[string]int{}
	for smp := range sampler.Ensemble(context.Background(), runs) {
		if smp.Err != nil {
			log.Fatal(smp.Err)
		}
		counts[key(smp.Graph)]++
	}
	fmt.Printf("distribution over the %d perfect matchings of K6 (%d runs, expect ~%.0f each):\n",
		len(counts), runs, float64(runs)/float64(len(counts)))
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  %s : %d\n", k, counts[k])
	}
}

func key(g *gesmc.Graph) string {
	edges := g.Edges()
	parts := make([]string, len(edges))
	for i, e := range edges {
		parts[i] = fmt.Sprintf("%d-%d", e[0], e[1])
	}
	sort.Strings(parts)
	return strings.Join(parts, " ")
}
