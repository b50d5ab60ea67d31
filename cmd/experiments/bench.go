package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"gesmc"
	"gesmc/internal/conc"
	"gesmc/internal/rng"
)

// bench is the reproducible performance-trajectory harness: it times the
// four parallel chains that now share the unified superstep kernel —
// ParES, ParGlobalES, directed ParGlobalES, and parallel Global
// Curveball — at P=1 and P=workers on a fixed synthetic workload, plus
// SeqGlobalES at P=1 as the sequential reference, and writes the
// ns/switch numbers to BENCH_<date>.json so successive PRs can be
// compared. All runs go through the public Sampler API (the code
// path production callers use).
type benchResult struct {
	Name       string `json:"name"`
	Workers    int    `json:"workers"`
	Supersteps int    `json:"supersteps"`
	Attempted  int64  `json:"attempted"`
	// AllocsPerSuperstep is the steady-state heap allocation count per
	// superstep (runtime mallocs across the measured supersteps). The
	// kernel chains should stay near zero; regressions here show up
	// before they show up in ns/switch.
	AllocsPerSuperstep float64 `json:"allocs_per_superstep"`
	NsPerSwitch        float64 `json:"ns_per_switch"`
	// SpeedupVsW1 is emitted as null when the container cannot actually
	// run the requested workers in parallel (see CPUBound): a "speedup"
	// measured by time-slicing P goroutines on fewer cores is noise.
	SpeedupVsW1 *float64 `json:"speedup_vs_w1"`
	// CPUBound marks results whose worker count exceeds GOMAXPROCS.
	CPUBound bool `json:"cpu_bound,omitempty"`
}

// benchHardware records the machine the artifact was produced on, so
// cross-commit comparisons know when a shift is hardware rather than
// code. Cache sizes come from the same sysfs detection the kernels'
// chunk sizing uses (conc.Topology).
type benchHardware struct {
	NumCPU     int    `json:"num_cpu"`
	GoOS       string `json:"goos"`
	GoArch     string `json:"goarch"`
	L2Bytes    int    `json:"l2_bytes"`
	LLCBytes   int    `json:"llc_bytes"`
	LLCSharers int    `json:"llc_sharers"`
	// CacheDetected is false when the cache values are the conservative
	// fallbacks rather than OS-reported.
	CacheDetected bool `json:"cache_detected"`
}

type benchReport struct {
	Date       string        `json:"date"`
	GoMaxProcs int           `json:"go_max_procs"`
	Hardware   benchHardware `json:"hardware"`
	Nodes      int           `json:"nodes"`
	EdgesUndir int           `json:"edges_undirected"`
	ArcsDir    int           `json:"arcs_directed"`
	Quick      bool          `json:"quick"`
	Results    []benchResult `json:"results"`
	// ServiceThroughput compares R identical requests through the
	// service layer's pooled engines against cold per-request sampler
	// construction (see service_bench.go).
	ServiceThroughput *serviceThroughput `json:"service_throughput"`
	// ConstrainedOverhead measures the cost of the connectivity
	// constraint on ParGlobalES: per-superstep certification plus
	// occasional rollbacks, against the unconstrained chain on the
	// same (connected) workload.
	ConstrainedOverhead *constrainedOverhead `json:"constrained_overhead"`
	// TelemetryOverhead measures the observability tax: the same
	// request workload with tracing/histograms on vs off (see
	// telemetry_bench.go). Gated at <= 1.03 in CI.
	TelemetryOverhead *telemetryOverhead `json:"telemetry_overhead"`
}

// constrainedOverhead is the bench artifact of the constraint layer:
// ns/switch with and without Connected(), their ratio, and the
// constrained chain's rejection behaviour.
type constrainedOverhead struct {
	Nodes                    int     `json:"nodes"`
	Edges                    int     `json:"edges"`
	NsPerSwitchConstrained   float64 `json:"ns_per_switch_constrained"`
	NsPerSwitchUnconstrained float64 `json:"ns_per_switch_unconstrained"`
	// Overhead is constrained / unconstrained ns per switch.
	Overhead float64 `json:"overhead"`
	// RejectionRate is 1 - accepted/attempted of the constrained run;
	// ConstraintVetoes isolates the rejections charged to the
	// constraint layer (connectivity vetoes and rollbacks).
	RejectionRate    float64 `json:"rejection_rate"`
	ConstraintVetoes int64   `json:"constraint_vetoes"`
	EscapeMoves      int64   `json:"escape_moves"`
}

// benchConstrained times ParGlobalES with and without the connectivity
// constraint on a grid graph (connected, bridge-free interior — the
// constraint's fast path dominates, so this measures certification
// overhead rather than pathological rollback storms).
func benchConstrained(opt options, supersteps int) (*constrainedOverhead, error) {
	side := 96
	if opt.quick {
		side = 32
	}
	grid := gesmc.GenerateGrid(side, side)
	co := &constrainedOverhead{Nodes: grid.N(), Edges: grid.M()}

	run := func(connected bool) (float64, gesmc.Stats, error) {
		opts := []gesmc.Option{
			gesmc.WithAlgorithm(gesmc.ParGlobalES),
			gesmc.WithWorkers(1),
			gesmc.WithSeed(opt.seed),
		}
		if connected {
			opts = append(opts, gesmc.WithConstraint(gesmc.Connected()))
		}
		s, err := gesmc.NewSampler(grid.Clone(), opts...)
		if err != nil {
			return 0, gesmc.Stats{}, err
		}
		defer s.Close()
		if _, err := s.Step(1); err != nil {
			return 0, gesmc.Stats{}, err
		}
		best := 0.0
		for w := 0; w < benchWindows; w++ {
			st, err := s.Step(supersteps)
			if err != nil {
				return 0, gesmc.Stats{}, err
			}
			ns := float64(st.Duration.Nanoseconds()) / float64(st.Attempted)
			if w == 0 || ns < best {
				best = ns
			}
		}
		return best, s.Stats(), nil
	}

	var err error
	co.NsPerSwitchUnconstrained, _, err = run(false)
	if err != nil {
		return nil, err
	}
	var st gesmc.Stats
	co.NsPerSwitchConstrained, st, err = run(true)
	if err != nil {
		return nil, err
	}
	co.Overhead = co.NsPerSwitchConstrained / co.NsPerSwitchUnconstrained
	if st.Attempted > 0 {
		co.RejectionRate = 1 - float64(st.Accepted)/float64(st.Attempted)
	}
	co.ConstraintVetoes = st.ConstraintVetoes
	co.EscapeMoves = st.EscapeMoves
	fmt.Printf("\nconstrained overhead (ParGlobalES, %dx%d grid): %.1f -> %.1f ns/switch (%.2fx), rejection %.3f\n",
		side, side, co.NsPerSwitchUnconstrained, co.NsPerSwitchConstrained, co.Overhead, co.RejectionRate)
	return co, nil
}

// benchOut is overridable for tests.
var benchOut = ""

func bench(opt options) error {
	n := 1 << 15
	supersteps := 10
	if opt.quick {
		n = 1 << 11
		supersteps = 3
	}
	ug, err := gesmc.GeneratePowerLaw(n, 2.2, opt.seed)
	if err != nil {
		return err
	}
	dg, err := benchDigraph(n, ug.M(), opt.seed)
	if err != nil {
		return err
	}

	topo := conc.Topology()
	report := benchReport{
		Date:       time.Now().Format("2006-01-02"),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Hardware: benchHardware{
			NumCPU:        runtime.NumCPU(),
			GoOS:          runtime.GOOS,
			GoArch:        runtime.GOARCH,
			L2Bytes:       topo.L2Bytes,
			LLCBytes:      topo.LLCBytes,
			LLCSharers:    topo.LLCSharers,
			CacheDetected: topo.Detected,
		},
		Nodes:      n,
		EdgesUndir: ug.M(),
		ArcsDir:    dg.M(),
		Quick:      opt.quick,
	}

	type chain struct {
		name   string
		alg    gesmc.Algorithm
		target func() gesmc.Target
		// seq marks the sequential reference: timed at w=1 only.
		seq bool
	}
	chains := []chain{
		{"ParES", gesmc.ParES, func() gesmc.Target { return ug.Clone() }, false},
		{"ParGlobalES", gesmc.ParGlobalES, func() gesmc.Target { return ug.Clone() }, false},
		{"ParGlobalES/directed", gesmc.ParGlobalES, func() gesmc.Target { return dg.Clone() }, false},
		{"GlobalCurveball", gesmc.GlobalCurveball, func() gesmc.Target { return ug.Clone() }, false},
		{"SeqGlobalES", gesmc.SeqGlobalES, func() gesmc.Target { return ug.Clone() }, true},
	}

	// Powers of two up to the requested maximum (always including the
	// maximum itself), so the artifact carries a real speedup curve
	// rather than a single endpoint ratio.
	workerCounts := []int{1}
	for w := 2; w < opt.workers; w <<= 1 {
		workerCounts = append(workerCounts, w)
	}
	if opt.workers > 1 {
		workerCounts = append(workerCounts, opt.workers)
	}
	fmt.Printf("%-22s %-8s %12s %14s %16s %10s\n",
		"chain", "workers", "attempted", "ns/switch", "allocs/superstep", "speedup")
	for _, c := range chains {
		var base float64
		counts := workerCounts
		if c.seq {
			counts = workerCounts[:1]
		}
		for _, w := range counts {
			r, err := benchOne(c.name, c.alg, c.target(), w, supersteps, opt.seed)
			if err != nil {
				return err
			}
			if w == 1 {
				base = r.NsPerSwitch
			} else if w > report.GoMaxProcs {
				// Fewer cores than workers: the w-vs-1 ratio measures
				// scheduler time-slicing, not parallel speedup.
				r.CPUBound = true
			} else if base > 0 {
				sp := base / r.NsPerSwitch
				r.SpeedupVsW1 = &sp
			}
			report.Results = append(report.Results, r)
			speedup := "-"
			if r.SpeedupVsW1 != nil {
				speedup = fmt.Sprintf("%.2f", *r.SpeedupVsW1)
			} else if r.CPUBound {
				speedup = "cpu-bound"
			}
			fmt.Printf("%-22s %-8d %12d %14.1f %16.1f %10s\n",
				r.Name, r.Workers, r.Attempted, r.NsPerSwitch, r.AllocsPerSuperstep, speedup)
		}
	}

	st, err := benchService(opt)
	if err != nil {
		return err
	}
	report.ServiceThroughput = st

	co, err := benchConstrained(opt, supersteps)
	if err != nil {
		return err
	}
	report.ConstrainedOverhead = co

	to, err := benchTelemetry(opt)
	if err != nil {
		return err
	}
	report.TelemetryOverhead = to

	out := benchOut
	if out == "" {
		out = fmt.Sprintf("BENCH_%s.json", report.Date)
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("\nwrote %s\n", out)
	return nil
}

// benchWindows is the number of measured windows per configuration.
// The reported ns/switch is the fastest window: on shared machines the
// minimum estimates intrinsic code speed, while means absorb neighbor
// load and make artifacts incomparable across commits (the reason this
// harness exists). Allocation counts are identical across windows in
// steady state, so they come from the last window.
const benchWindows = 3

// benchOne compiles the sampler once (setup excluded, as in §6's
// methodology), runs one warm-up superstep (which also grows all
// reusable scratch to steady state), then times benchWindows windows
// of the measured supersteps, counting heap allocations via
// runtime.MemStats and keeping the fastest window's ns/switch.
func benchOne(name string, alg gesmc.Algorithm, target gesmc.Target, workers, supersteps int, seed uint64) (benchResult, error) {
	s, err := gesmc.NewSampler(target,
		gesmc.WithAlgorithm(alg),
		gesmc.WithWorkers(workers),
		gesmc.WithSeed(seed))
	if err != nil {
		return benchResult{}, err
	}
	defer s.Close()
	if _, err := s.Step(1); err != nil {
		return benchResult{}, err
	}
	var r benchResult
	for w := 0; w < benchWindows; w++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		stats, err := s.Step(supersteps)
		if err != nil {
			return benchResult{}, err
		}
		runtime.ReadMemStats(&after)
		ns := 0.0
		if stats.Attempted > 0 {
			ns = float64(stats.Duration.Nanoseconds()) / float64(stats.Attempted)
		}
		if w == 0 || ns < r.NsPerSwitch {
			r.NsPerSwitch = ns
		}
		r.Name = name
		r.Workers = workers
		r.Supersteps = stats.Supersteps
		r.Attempted = stats.Attempted
		r.AllocsPerSuperstep = float64(after.Mallocs-before.Mallocs) / float64(supersteps)
	}
	return r, nil
}

// benchDigraph samples a simple digraph with exactly m arcs by
// rejection (duplicate and loop arcs are redrawn; m ≪ n² here, so
// collisions are rare).
func benchDigraph(n, m int, seed uint64) (*gesmc.DiGraph, error) {
	src := rng.NewMT19937(seed ^ 0xD16A)
	seen := make(map[[2]uint32]struct{}, m)
	arcs := make([][2]uint32, 0, m)
	for len(arcs) < m {
		u := uint32(rng.IntN(src, n))
		v := uint32(rng.IntN(src, n))
		if u == v {
			continue
		}
		a := [2]uint32{u, v}
		if _, dup := seen[a]; dup {
			continue
		}
		seen[a] = struct{}{}
		arcs = append(arcs, a)
	}
	return gesmc.NewDiGraph(n, arcs)
}
