// Command perfbench is the gesmc benchmark. It drives the system only
// through its public entry points on one seeded workload, checks every
// delivered sample, and prints one JSON result as the last line of
// standard output. Run it from the repository root:
//
//	bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// --trace 0 reports the end-to-end metrics. --trace 1 runs the workload
// with the benchmark's own spans on every other request, then the
// per-layer probes and the six-row layer ledger, reports the per-layer
// metrics, and writes spans, ledger and suspect verdicts to
// <out>/<workload>-<seed>.json. README.md defines every metric.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// drivers maps each workload to the function that sets it up and
// measures it.
var drivers = map[string]func(context.Context, *run) error{
	"burnin-powerlaw": runBurnin,
	"stream-http":     runStream,
	"cluster-mixed":   runCluster,
}

func main() {
	workload := flag.String("workload", "", "burnin-powerlaw, stream-http or cluster-mixed")
	seed := flag.Uint64("seed", 1, "seed of the generated inputs")
	seconds := flag.Float64("seconds", 10, "measured duration in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced variant and reports per-layer metrics")
	out := flag.String("out", filepath.Join(".bench_build", "traces"), "directory for trace files")
	flag.Parse()
	if _, ok := drivers[*workload]; !ok || !(*seconds > 0) || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload burnin-powerlaw|stream-http|cluster-mixed, --seconds > 0 and --trace 0|1")
		os.Exit(2)
	}
	sc := fullScale
	sc.seconds = time.Duration(*seconds * float64(time.Second))
	res, err := execute(context.Background(), *workload, sc, *seed, *trace == 1, *out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
