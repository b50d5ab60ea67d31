// Command experiments regenerates every table and figure of the paper's
// evaluation (§6) on synthetic stand-in workloads; see DESIGN.md for the
// experiment index and EXPERIMENTS.md for recorded outcomes.
//
// Usage:
//
//	experiments <fig2|fig3|table4|fig5|fig6|fig7|fig8|fig9|curveball|ensemble|bench|all> [flags]
//
// Common flags:
//
//	-scale f    size multiplier for workloads (default 1.0)
//	-seed n     master seed (default 42)
//	-workers n  max parallelism P (default GOMAXPROCS)
//	-quick      much smaller parameters, for smoke testing
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"
)

type options struct {
	scale   float64
	seed    uint64
	workers int
	quick   bool
}

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd := os.Args[1]
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	scale := fs.Float64("scale", 1.0, "workload size multiplier")
	seed := fs.Uint64("seed", 42, "master seed")
	workers := fs.Int("workers", runtime.GOMAXPROCS(0), "maximum parallelism P")
	quick := fs.Bool("quick", false, "tiny parameters for smoke tests")
	out := fs.String("out", "", "output path for bench JSON (default BENCH_<date>.json)")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the command to this file")
	memProfile := fs.String("memprofile", "", "write a post-run heap profile to this file")
	if err := fs.Parse(os.Args[2:]); err != nil {
		os.Exit(2)
	}
	benchOut = *out
	opt := options{scale: *scale, seed: *seed, workers: *workers, quick: *quick}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		path := *memProfile
		defer func() {
			f, err := os.Create(path)
			if err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			}
		}()
	}

	runOne := func(name string, fn func(options) error) {
		fmt.Printf("==== %s ====\n", name)
		start := time.Now()
		if err := fn(opt); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			pprof.StopCPUProfile()
			os.Exit(1)
		}
		fmt.Printf("(%s completed in %v)\n\n", name, time.Since(start).Round(time.Millisecond))
	}

	switch cmd {
	case "fig2":
		runOne("Figure 2: mixing of ES-MC vs G-ES-MC on SynPld", fig2)
	case "fig3":
		runOne("Figure 3: first superstep below threshold on corpus", fig3)
	case "table4":
		runOne("Table 4: absolute runtimes", table4)
	case "fig5":
		runOne("Figure 5: runtimes and speed-ups", fig5)
	case "fig6":
		runOne("Figure 6: strong scaling of ParGlobalES", fig6)
	case "fig7":
		runOne("Figure 7: G(n,p) runtime vs average degree", fig7)
	case "fig8":
		runOne("Figure 8: SynPld runtime/edge vs degree exponent", fig8)
	case "fig9":
		runOne("Figure 9: rounds per global switch", fig9)
	case "curveball":
		runOne("Extension: Curveball vs edge-switching mixing", curveballCmp)
	case "ensemble":
		runOne("Extension: one-shot vs reused-sampler ensemble throughput", ensembleCmp)
	case "bench":
		runOne("Benchmark: ns/switch of the unified-kernel chains", bench)
	case "verifyconn":
		// Stream verifier (no banner: used in pipelines): reads the
		// sampling service's NDJSON from stdin and fails unless every
		// sample line decodes to a connected graph.
		if err := verifyConn(os.Stdin, os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "verifyconn: %v\n", err)
			os.Exit(1)
		}
		return
	case "all":
		runOne("Figure 2", fig2)
		runOne("Figure 3", fig3)
		runOne("Table 4", table4)
		runOne("Figure 5", fig5)
		runOne("Figure 6", fig6)
		runOne("Figure 7", fig7)
		runOne("Figure 8", fig8)
		runOne("Figure 9", fig9)
		runOne("Curveball comparison (extension)", curveballCmp)
		runOne("Ensemble throughput (extension)", ensembleCmp)
	default:
		usage()
		os.Exit(2)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: experiments <fig2|fig3|table4|fig5|fig6|fig7|fig8|fig9|curveball|ensemble|bench|verifyconn|all> [-scale f] [-seed n] [-workers n] [-quick] [-cpuprofile f] [-memprofile f]`)
}
