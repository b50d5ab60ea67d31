package switching_test

import (
	"context"
	"slices"
	"testing"

	"gesmc/internal/core"
	"gesmc/internal/digraph"
	"gesmc/internal/gen"
	"gesmc/internal/graph"
	"gesmc/internal/rng"
	"gesmc/internal/switching"
)

// The differential tests below run each chain twice from one seed: on
// the default dependency table, whose tuple-count filter lets a decide
// step skip the probe of a target alone in its slot, and on a table
// with every slot forced shared, which links and probes every tuple as
// the table did before the filter. The edge lists must be equal after
// every superstep. The targets are dense enough that many targets
// collide with present edges or other targets. At w = 8 the workers
// outnumber the filter's lanes, so lanes have several writers.

const filterSupersteps = 8

func TestFilterParGlobalMatchesUnfiltered(t *testing.T) {
	src := rng.NewMT19937(9101)
	targets := []*graph.Graph{gen.GNP(60, 0.3, src)}
	if g, err := gen.SynPldGraph(1<<10, 2.1, src); err == nil {
		targets = append(targets, g)
	} else {
		t.Fatal(err)
	}
	for ti, g := range targets {
		for _, pl := range []float64{0, 0.5} {
			for _, w := range []int{1, 2, 4, 8} {
				cfg := core.Config{Seed: 11, Workers: w, LoopProb: pl}
				def, forced := g.Clone(), g.Clone()
				ed, err := core.NewEngine(def, core.AlgParGlobalES, cfg)
				if err != nil {
					t.Fatal(err)
				}
				ef, err := core.NewEngine(forced, core.AlgParGlobalES, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !switching.DisableFilter(ef) {
					t.Fatal("ParGlobalES engine does not run a GlobalStepper")
				}
				for step := 0; step < filterSupersteps; step++ {
					sd, _ := ed.Steps(context.Background(), 1)
					sf, _ := ef.Steps(context.Background(), 1)
					if sd.Legal != sf.Legal || !slices.Equal(def.Edges(), forced.Edges()) {
						t.Fatalf("target %d P_L=%v w=%d superstep %d: filtered and unfiltered edge lists differ",
							ti, pl, w, step)
					}
				}
				ed.Close()
				ef.Close()
			}
		}
	}
}

func TestFilterDirectedParGlobalMatchesUnfiltered(t *testing.T) {
	src := rng.NewMT19937(9102)
	const n = 40
	var pairs [][2]graph.Node
	for _, a := range randomArcs(n, 0.3, src) {
		pairs = append(pairs, [2]graph.Node{a.Tail(), a.Head()})
	}
	dg, err := digraph.FromPairs(n, pairs)
	if err != nil {
		t.Fatal(err)
	}
	for _, pl := range []float64{0, 0.5} {
		for _, w := range []int{1, 2, 4, 8} {
			cfg := core.Config{Seed: 12, Workers: w, LoopProb: pl}
			def, forced := dg.Clone(), dg.Clone()
			ed, err := core.Compile(def.N(), def.Arcs(), core.AlgParGlobalES, cfg)
			if err != nil {
				t.Fatal(err)
			}
			ef, err := core.Compile(forced.N(), forced.Arcs(), core.AlgParGlobalES, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !switching.DisableFilter(ef) {
				t.Fatal("directed ParGlobalES engine does not run a GlobalStepper")
			}
			for step := 0; step < filterSupersteps; step++ {
				sd, _ := ed.Steps(context.Background(), 1)
				sf, _ := ef.Steps(context.Background(), 1)
				if sd.Legal != sf.Legal || !slices.Equal(def.Arcs(), forced.Arcs()) {
					t.Fatalf("P_L=%v w=%d superstep %d: filtered and unfiltered arc lists differ", pl, w, step)
				}
			}
			ed.Close()
			ef.Close()
		}
	}
}

// TestFilterParESMatchesUnfiltered drives ParES's prefix supersteps
// (Algorithm 2) on bare runners: a switch sequence is cut into its
// longest source-independent prefixes, each run as one superstep,
// whose unsourced targets the decide step looks up in the edge set.
func TestFilterParESMatchesUnfiltered(t *testing.T) {
	src := rng.NewMT19937(9103)
	g := gen.GNP(60, 0.3, src)
	m := g.M()
	switches := make([]switching.Switch, 4*m)
	for i := range switches {
		a, b := rng.TwoDistinct(src, m)
		switches[i] = switching.Switch{I: uint32(a), J: uint32(b), G: rng.Bool(src)}
	}
	for _, w := range []int{1, 2, 4, 8} {
		def := append([]graph.Edge(nil), g.Edges()...)
		forced := append([]graph.Edge(nil), g.Edges()...)
		rd := switching.NewRunner(def, m/2, w)
		rf := switching.NewRunner(forced, m/2, w)
		switching.DisableRunnerFilter(rf)
		supersteps := 0
		for pending := switches; len(pending) > 0; supersteps++ {
			p := core.FindCollisionFreePrefix(pending[:min(len(pending), m/2)], m)
			rd.Run(pending[:p])
			rf.Run(pending[:p])
			if rd.Legal != rf.Legal || !slices.Equal(def, forced) {
				t.Fatalf("w=%d superstep %d: filtered and unfiltered edge lists differ", w, supersteps)
			}
			pending = pending[p:]
		}
		rd.Release()
		rf.Release()
		if supersteps < 10 {
			t.Fatalf("w=%d: %d prefix supersteps, want many", w, supersteps)
		}
	}
}
