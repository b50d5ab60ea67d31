package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"gesmc"
	"gesmc/internal/conc"
	"gesmc/internal/core"
	"gesmc/internal/curveball"
	"gesmc/internal/gen"
	"gesmc/internal/graph"
	"gesmc/internal/service"
	"gesmc/internal/telemetry"
	"gesmc/wire"
)

// The traced run's per-layer probes. Each probe times one layer's
// public entry point from outside, on the workload's own target and
// chain, so each layer metric moves with that layer's code.

// mainTarget is the target and chain of a workload that the probes and
// the ledger reuse.
type mainTarget struct {
	degrees []int
	alg     gesmc.Algorithm
	workers int
}

func (mt mainTarget) edges() int {
	sum := 0
	for _, d := range mt.degrees {
		sum += d
	}
	return sum / 2
}

// shareThreshold is the share of its workload's wall time at which a
// suspect counts as confirmed.
const shareThreshold = 0.05

// verdict states one ROADMAP suspect as confirmed or cleared.
type verdict struct {
	Key     string  `json:"key"`
	Suspect string  `json:"suspect"`
	Metric  string  `json:"metric"`
	Value   float64 `json:"value"`
	Share   float64 `json:"share_of_wall_time"`
	Verdict string  `json:"verdict"`
}

var sink *gesmc.Graph // keeps timed clones alive

// probeLayers measures every per-layer metric into r.layers and fills
// the ledger and the suspect verdicts.
func probeLayers(ctx context.Context, r *run) error {
	mt := r.main
	L := make(map[string]metric)
	put := func(name, unit string, v float64) { L[name] = metric{Value: v, Unit: unit} }

	topo := conc.Topology()
	put("hw.num_cpu", "count", float64(runtime.NumCPU()))
	put("hw.gomaxprocs", "count", float64(runtime.GOMAXPROCS(0)))
	put("hw.l2_bytes", "B", float64(topo.L2Bytes))
	put("hw.llc_bytes", "B", float64(topo.LLCBytes))

	// internal/switching and internal/core through Engine.Steps at
	// workers = nproc; internal/conc's strong scaling against w = 1.
	kn, err := kernelProbe(ctx, mt.degrees, r.nproc, r.seed, r.sc.probe)
	if err != nil {
		return fmt.Errorf("kernel: %w", err)
	}
	k1, err := kernelProbe(ctx, mt.degrees, 1, r.seed, r.sc.probe)
	if err != nil {
		return fmt.Errorf("kernel: %w", err)
	}
	att := float64(kn.Attempted)
	nsN := float64(kn.Duration) / att
	put("switching.ns_per_switch", "ns", nsN)
	put("switching.first_round_ns_per_switch", "ns", float64(kn.FirstRoundTime)/att)
	put("switching.later_rounds_ns_per_switch", "ns", float64(kn.LaterRoundsTime)/att)
	put("switching.rounds_per_superstep", "count", kn.AvgRounds())
	put("switching.max_rounds", "count", float64(kn.MaxRounds))
	put("switching.rounds_bound", "count", roundsBound(mt.degrees))
	put("switching.accept_ratio", "ratio", float64(kn.Legal)/att)
	put("switching.allocs_per_superstep", "count", float64(kn.allocs)/float64(kn.Supersteps))
	ns1 := float64(k1.Duration) / float64(k1.Attempted)
	put("conc.ns_per_switch_w1", "ns", ns1)
	speedup := 0.0
	if r.nproc <= runtime.NumCPU() {
		speedup = ns1 / nsN
		r.speedup = &speedup
	}
	put("conc.speedup_wN", "ratio", speedup)

	trade, writeback, err := curveballProbe(ctx, mt.degrees, r.seed, r.sc.probe)
	if err != nil {
		return fmt.Errorf("curveball: %w", err)
	}
	put("curveball.ns_per_trade", "ns", trade)
	put("curveball.writeback_ns_per_edge", "ns", writeback)

	sp, err := samplerProbe(ctx, r)
	if err != nil {
		return fmt.Errorf("sampler: %w", err)
	}
	if len(r.compile) > 0 {
		var c []float64
		for _, d := range r.compile {
			c = append(c, ms(d))
		}
		sp.compileMS = quantile(c, 0.5)
	}
	put("sampler.compile_ms", "ms", sp.compileMS)
	put("sampler.snapshot_ns_per_edge", "ns", sp.snapshot)
	put("sampler.allocs_per_sample", "count", sp.allocs)
	put("sampler.bytes_per_sample", "B", sp.bytes)

	ex, err := exactProbe(ctx, r)
	if err != nil {
		return fmt.Errorf("exact: %w", err)
	}
	put("exact.attempts_per_draw", "count", ex.attempts)
	put("exact.predicted_attempts_per_draw", "count", ex.predicted)
	put("exact.ns_per_draw", "ns", ex.ns)
	put("exact.bytes_per_draw", "B", ex.bytes)

	realize, err := realizeProbe(mt.degrees)
	if err != nil {
		return fmt.Errorf("realize: %w", err)
	}
	put("gen.realize_ms", "ms", realize)

	enc, dec, size, err := wireProbe(mt.degrees, r.sc.probe)
	if err != nil {
		return fmt.Errorf("wire: %w", err)
	}
	put("wire.encode_ns_per_edge", "ns", enc)
	put("wire.decode_ns_per_edge", "ns", dec)
	put("wire.bytes_per_edge", "B", size)

	lg, err := runLedger(ctx, r)
	if err != nil {
		return fmt.Errorf("ledger: %w", err)
	}
	r.ledger = lg
	for i, row := range lg.Rows {
		put("ledger."+ledgerKeys[i]+"_ns_per_sample", "ns", row.NsPerSample)
		if row.AllocsPerSample != nil {
			put("ledger."+ledgerKeys[i]+"_allocs_per_sample", "count", *row.AllocsPerSample)
			put("ledger."+ledgerKeys[i]+"_bytes_per_sample", "B", *row.BytesPerSample)
		}
	}
	put("service.overhead_ns_per_sample", "ns", lg.ServiceOverheadNs)
	put("http.overhead_ns_per_sample", "ns", lg.Rows[4].NsPerSample-lg.Rows[3].NsPerSample)
	put("telemetry.overhead_ratio", "ratio", lg.TelemetryRatio)
	put("telemetry.span_agreement", "ratio", lg.SpanAgreement)
	put("cluster.hop_ms.p50", "ms", quantile(lg.HopsMS, 0.5))
	put("cluster.hop_ms.p90", "ms", quantile(lg.HopsMS, 0.9))

	// The system's own spans: the workload's traced requests plus the
	// ledger's service, daemon and coordinator requests.
	var queue, compile, ff []float64
	var hits, checkouts float64
	for _, s := range r.sysSpans {
		d := float64(s.DurationNS) / 1e6
		switch s.Name {
		case "queue.wait":
			queue = append(queue, d)
		case "engine.compile":
			compile = append(compile, d)
		case "pool.fast_forward":
			ff = append(ff, d)
		case "pool.checkout":
			checkouts++
			if s.Attrs["outcome"] == "hit" {
				hits++
			}
		}
	}
	put("service.queue_wait_ms.p50", "ms", quantile(queue, 0.5))
	put("service.queue_wait_ms.p90", "ms", quantile(queue, 0.9))
	put("service.compile_ms.p50", "ms", quantile(compile, 0.5))
	put("service.fast_forward_ms.p50", "ms", quantile(ff, 0.5))
	put("service.pool_hit_rate", "ratio", hits/max(checkouts, 1))
	put("http.ttfb_ms.p50", "ms", quantile(r.ttfb, 0.5))

	rt := lg.routing
	if r.routing != nil {
		rt = *r.routing
	}
	put("cluster.routed_owner_frac", "ratio", rt.owner)
	put("cluster.routed_spill_frac", "ratio", rt.spill)
	put("cluster.failovers", "count", float64(rt.failovers))
	put("cluster.retries", "count", float64(rt.retries))

	put("loadgen.lag_ms.p90", "ms", quantile(r.lags, 0.9))
	put("trace.overhead_ratio", "ratio", r.traceOverhead())

	// The ROADMAP suspects, each as its share of the workload's wall
	// time: the measured per-unit cost times the units the workload
	// pushed through that step.
	wall := float64(r.wall.Nanoseconds())
	r.verdicts = []verdict{
		suspect("writeback", "curveballEngine.steps copies all m edges back per call (WriteEdges)",
			"curveball.writeback_ns_per_edge", writeback, writeback*float64(r.tradeEdges)/wall),
		suspect("exact_graph", "the exact engine builds a new graph for every draw",
			"exact.bytes_per_draw", ex.bytes, ex.ns*float64(r.exactDraws)/wall),
		suspect("snapshot", "Sample clones the target for every delivered sample",
			"sampler.snapshot_ns_per_edge", sp.snapshot, sp.snapshot*float64(r.served)/wall),
		suspect("encode", "NDJSON encoding is O(m) per line",
			"wire.encode_ns_per_edge", enc, enc*float64(r.served)/wall),
		suspect("decode", "NDJSON client decoding is O(m) per line",
			"wire.decode_ns_per_edge", dec, dec*float64(r.served)/wall),
	}
	for _, v := range r.verdicts {
		put("suspect."+v.Key+"_share", "ratio", v.Share)
	}
	r.mu.Lock()
	put("verify.failed_frac", "ratio", float64(r.failed)/float64(max(r.attempted, 1)))
	r.mu.Unlock()
	r.layers = L
	return nil
}

func suspect(key, what, metricName string, value, share float64) verdict {
	v := verdict{Key: key, Suspect: what, Metric: metricName, Value: value, Share: share, Verdict: "cleared"}
	if share >= shareThreshold {
		v.Verdict = "confirmed"
	}
	return v
}

// roundsBound is the expected rounds per superstep that Theorems 2-3
// bound, 4·Δ²/m (DESIGN.md §2), floored at one round.
func roundsBound(degrees []int) float64 {
	dmax := float64(slices.Max(degrees))
	m := float64(mainTarget{degrees: degrees}.edges())
	return max(1, 4*dmax*dmax/m)
}

// measure runs fn and returns its wall time and the heap allocations
// (objects and bytes) the whole process made meanwhile.
func measure(fn func() error) (time.Duration, uint64, uint64, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	err := fn()
	d := time.Since(t0)
	runtime.ReadMemStats(&after)
	return d, after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc, err
}

// kernelRun accumulates core.RunStats over a probe.
type kernelRun struct {
	core.RunStats
	allocs uint64
}

// kernelProbe times ParGlobalES supersteps through core.Engine.Steps
// after one warm-up superstep, for at least budget and two supersteps.
func kernelProbe(ctx context.Context, degrees []int, workers int, seed uint64, budget time.Duration) (kernelRun, error) {
	var k kernelRun
	g, err := gen.GraphFromSequence(degrees)
	if err != nil {
		return k, err
	}
	eng, err := core.NewEngine(g, core.AlgParGlobalES, core.Config{Workers: workers, Seed: seed})
	if err != nil {
		return k, err
	}
	defer eng.Close()
	if _, err := eng.Steps(ctx, 1); err != nil {
		return k, err
	}
	_, allocs, _, err := measure(func() error {
		for start := time.Now(); k.Supersteps < 2 || time.Since(start) < budget; {
			st, err := eng.Steps(ctx, 1)
			if err != nil {
				return err
			}
			k.Supersteps += st.Supersteps
			k.Attempted += st.Attempted
			k.Legal += st.Legal
			k.InternalSupersteps += st.InternalSupersteps
			k.TotalRounds += st.TotalRounds
			k.MaxRounds = max(k.MaxRounds, st.MaxRounds)
			k.FirstRoundTime += st.FirstRoundTime
			k.LaterRoundsTime += st.LaterRoundsTime
			k.Duration += st.Duration
		}
		return nil
	})
	k.allocs = allocs
	return k, err
}

// curveballProbe times GlobalCurveball supersteps through Sampler.Step:
// the trade rounds per trade, and the rest of each Step (the write-back
// of all m edges into the target) per edge.
func curveballProbe(ctx context.Context, degrees []int, seed uint64, budget time.Duration) (nsPerTrade, writebackPerEdge float64, err error) {
	g, err := gesmc.FromDegrees(degrees)
	if err != nil {
		return 0, 0, err
	}
	s, err := gesmc.NewSampler(g, gesmc.WithAlgorithm(gesmc.GlobalCurveball), gesmc.WithSeed(seed))
	if err != nil {
		return 0, 0, err
	}
	defer s.Close()
	if _, err := s.StepContext(ctx, 1); err != nil {
		return 0, 0, err
	}
	var rounds, wall time.Duration
	var trades int64
	steps := 0
	for start := time.Now(); steps < 2 || time.Since(start) < budget; steps++ {
		st, err := s.StepContext(ctx, 1)
		if err != nil {
			return 0, 0, err
		}
		rounds += st.FirstRoundTime + st.LaterRoundsTime
		wall += st.Duration
		trades += st.Attempted
	}
	return float64(rounds) / float64(trades), float64(wall-rounds) / float64(steps*g.M()), nil
}

type samplerStats struct {
	compileMS, snapshot, allocs, bytes float64
}

// samplerProbe times NewSampler, the per-sample snapshot (Graph.Clone,
// the copy Ensemble and Collect hand out), and the allocations of
// thinning-1 Collect per sample.
func samplerProbe(ctx context.Context, r *run) (samplerStats, error) {
	var sp samplerStats
	mt := r.main
	g, err := gesmc.FromDegrees(mt.degrees)
	if err != nil {
		return sp, err
	}
	opts := []gesmc.Option{gesmc.WithAlgorithm(mt.alg), gesmc.WithWorkers(mt.workers),
		gesmc.WithSeed(r.seed), gesmc.WithBurnIn(1), gesmc.WithThinning(1)}
	var compiles []float64
	for range 3 {
		target := g.Clone()
		t0 := time.Now()
		s, err := gesmc.NewSampler(target, opts...)
		compiles = append(compiles, ms(time.Since(t0)))
		if err != nil {
			return sp, err
		}
		s.Close()
	}
	sp.compileMS = quantile(compiles, 0.5)

	n := 0
	start := time.Now()
	for ; n < 3 || time.Since(start) < r.sc.probe/4; n++ {
		sink = g.Clone()
	}
	sp.snapshot = float64(time.Since(start)) / float64(n*g.M())

	s, err := gesmc.NewSampler(g, opts...)
	if err != nil {
		return sp, err
	}
	defer s.Close()
	if _, err := s.Collect(ctx, 1); err != nil {
		return sp, err
	}
	k := ledgerSamples(g.M())
	var smps []gesmc.Sample
	_, allocs, bytes, err := measure(func() (err error) {
		smps, err = s.Collect(ctx, k)
		return err
	})
	if err != nil {
		return sp, err
	}
	sp.allocs, sp.bytes = float64(allocs)/float64(k), float64(bytes)/float64(k)
	r.verifySamples(smps, undirected(mt.degrees, "mcmc"), k)
	return sp, nil
}

// verifySamples checks in-process samples and counts them.
func (r *run) verifySamples(smps []gesmc.Sample, e *expect, expected int) {
	var v verifier
	t := tally{expected: expected}
	for i, smp := range smps {
		smp.Index = i
		ln := sampleLine(smp)
		t.line(r, &v, e, &ln, i)
	}
	r.count(t)
}

type exactStats struct {
	attempts, predicted, ns, bytes float64
}

// exactProbe draws exact-tier samples of a bounded-degree target
// through Sampler.Step. predicted is e^{λ+λ²}, the acceptance bound the
// tier's regime gate rests on.
func exactProbe(ctx context.Context, r *run) (exactStats, error) {
	var ex exactStats
	degrees := boundedDegrees(rand.New(rand.NewPCG(r.seed, 2)), r.sc.exactN)
	g, err := gesmc.FromDegrees(degrees)
	if err != nil {
		return ex, err
	}
	s, err := gesmc.NewSampler(g, gesmc.WithAlgorithm(gesmc.Exact), gesmc.WithSeed(r.seed))
	if err != nil {
		return ex, err
	}
	defer s.Close()
	var attempted, accepted int64
	var dur time.Duration
	var last gesmc.Stats
	draws := 0
	_, _, bytes, err := measure(func() error {
		for start := time.Now(); draws < 8 || time.Since(start) < r.sc.probe; draws++ {
			st, err := s.StepContext(ctx, 1)
			if err != nil {
				return err
			}
			attempted += st.Attempted
			accepted += st.Accepted
			dur += st.Duration
			last = st
		}
		return nil
	})
	if err != nil {
		return ex, err
	}
	r.verifySamples([]gesmc.Sample{{Graph: g, Stats: last}}, undirected(degrees, "exact"), 1)
	var sum, pairs float64
	for _, d := range degrees {
		sum += float64(d)
		pairs += float64(d) * float64(d-1)
	}
	lambda := pairs / (2 * sum)
	ex.attempts = float64(attempted) / float64(accepted)
	ex.predicted = math.Exp(lambda + lambda*lambda)
	ex.ns = float64(dur) / float64(accepted)
	ex.bytes = float64(bytes) / float64(draws)
	return ex, nil
}

// realizeProbe times the graphicality gate plus FromDegrees (median of
// three).
func realizeProbe(degrees []int) (float64, error) {
	var times []float64
	for range 3 {
		t0 := time.Now()
		if !gesmc.IsGraphical(degrees) {
			return 0, fmt.Errorf("target is not graphical")
		}
		if _, err := gesmc.FromDegrees(degrees); err != nil {
			return 0, err
		}
		times = append(times, ms(time.Since(t0)))
	}
	return quantile(times, 0.5), nil
}

// wireProbe times wire.EncodeLine and wire.DecodeLines on a sample line
// of the target, per edge, and reports the encoded size per edge.
func wireProbe(degrees []int, budget time.Duration) (enc, dec, size float64, err error) {
	g, err := gesmc.FromDegrees(degrees)
	if err != nil {
		return 0, 0, 0, err
	}
	m := float64(g.M())
	ln := sampleLine(gesmc.Sample{Graph: g, Stats: gesmc.Stats{Algorithm: gesmc.ParGlobalES.String(), Supersteps: 1}})
	var buf bytes.Buffer
	n := 0
	start := time.Now()
	for ; n < 3 || time.Since(start) < budget/2; n++ {
		buf.Reset()
		if err := wire.EncodeLine(&buf, ln); err != nil {
			return 0, 0, 0, err
		}
	}
	enc = float64(time.Since(start)) / (float64(n) * m)
	size = float64(buf.Len()) / m

	const copies = 4
	stream := bytes.Repeat(buf.Bytes(), copies)
	n = 0
	start = time.Now()
	for ; n < 1 || time.Since(start) < budget/2; n++ {
		if err := wire.DecodeLines(bytes.NewReader(stream), func(wire.Line) error { return nil }); err != nil {
			return 0, 0, 0, err
		}
	}
	dec = float64(time.Since(start)) / (float64(n*copies) * m)
	return enc, dec, size, nil
}

// ledgerKeys name the six ledger rows in metric names.
var ledgerKeys = []string{"kernel", "engine", "sampler", "service", "http", "coordinator"}

// ledger is the six-row layer ledger of one workload: one target and
// schedule (the workload's target and chain, burn-in 1, thinning 1)
// driven through each layer in turn, plus the measurements taken
// beside it.
type ledger struct {
	Rows              []ledgerRow      `json:"rows"`
	ServiceOverheadNs float64          `json:"service_overhead_ns_per_sample"`
	TelemetryRatio    float64          `json:"telemetry_overhead_ratio"`
	SpanAgreement     float64          `json:"span_agreement"`
	Tolerance         string           `json:"span_agreement_tolerance"`
	Checks            []agreementCheck `json:"span_checks"`
	HopsMS            []float64        `json:"coordinator_hop_ms"`
	routing           routing
}

// ledgerRow is one layer's cost per sample. Allocations count the
// whole process; the kernel row has none of its own.
type ledgerRow struct {
	Layer           string   `json:"layer"`
	Samples         int      `json:"samples"`
	NsPerSample     float64  `json:"ns_per_sample"`
	AllocsPerSample *float64 `json:"allocs_per_sample"`
	BytesPerSample  *float64 `json:"bytes_per_sample"`
	LayerNs         float64  `json:"layer_ns_per_sample"` // this row minus the row below
}

func newRow(layer string, k int, d time.Duration, allocs, bytes uint64) ledgerRow {
	a, b := float64(allocs)/float64(k), float64(bytes)/float64(k)
	return ledgerRow{Layer: layer, Samples: k, NsPerSample: float64(d) / float64(k), AllocsPerSample: &a, BytesPerSample: &b}
}

// medianRow keeps the row with the median time among repetitions.
func medianRow(rows []ledgerRow) ledgerRow {
	rows = slices.Clone(rows)
	slices.SortFunc(rows, func(a, b ledgerRow) int {
		switch {
		case a.NsPerSample < b.NsPerSample:
			return -1
		case a.NsPerSample > b.NsPerSample:
			return 1
		}
		return 0
	})
	return rows[len(rows)/2]
}

// ledgerSamples sizes a ledger row: enough samples to time, few enough
// that large targets stay within a few seconds.
func ledgerSamples(m int) int { return min(max(1_000_000/m, 3), 24) }

// ledgerReps is the number of timed requests per serving row; the row
// reports the median.
const ledgerReps = 3

// agreementCheck compares the benchmark's outside timing of one
// Service.Sample call with a span the service recorded for it.
type agreementCheck struct {
	Span      string `json:"span"`
	OutsideNS int64  `json:"outside_ns"`
	SpanNS    int64  `json:"span_ns"`
	Agree     bool   `json:"agree"`
}

// spanTolerance states when a system span agrees with the outside
// timing of the same call.
const spanTolerance = "|outside - span| <= 10% of outside + 1 ms"

func agree(outside, span time.Duration) bool {
	diff := outside - span
	if diff < 0 {
		diff = -diff
	}
	return diff <= outside/10+time.Millisecond
}

func runLedger(ctx context.Context, r *run) (*ledger, error) {
	mt := r.main
	k := ledgerSamples(mt.edges())
	e := undirected(mt.degrees, "mcmc")
	lg := &ledger{Tolerance: spanTolerance}

	kernel, steps, err := engineRows(ctx, r, k, e)
	if err != nil {
		return nil, err
	}
	lg.Rows = append(lg.Rows, kernel, steps)

	// Row 3: Sampler.Sample with its snapshot, as Collect draws it.
	g, err := gesmc.FromDegrees(mt.degrees)
	if err != nil {
		return nil, err
	}
	s, err := gesmc.NewSampler(g, gesmc.WithAlgorithm(mt.alg), gesmc.WithWorkers(mt.workers),
		gesmc.WithSeed(r.seed), gesmc.WithBurnIn(1), gesmc.WithThinning(1))
	if err != nil {
		return nil, err
	}
	defer s.Close()
	if _, err := s.Collect(ctx, 1); err != nil {
		return nil, err
	}
	var smps []gesmc.Sample
	d, allocs, bytes, err := measure(func() (err error) {
		smps, err = s.Collect(ctx, k)
		return err
	})
	if err != nil {
		return nil, err
	}
	r.verifySamples(smps, e, k)
	lg.Rows = append(lg.Rows, newRow("Sampler.Sample + snapshot", k, d, allocs, bytes))

	// Row 4: Service.Sample in process, telemetry on (the shipped
	// default) and off for the telemetry overhead, each call checked
	// against the service's own spans.
	req := wire.SampleRequest{Degrees: mt.degrees, Algorithm: mt.alg.String(), Workers: mt.workers,
		Seed: r.seed, BurnIn: 1, Thinning: 1, Samples: k}
	warm := req
	warm.Samples = 1
	on := service.New(service.Config{})
	defer on.Shutdown(ctx)
	off := service.New(service.Config{NoTelemetry: true})
	defer off.Shutdown(ctx)
	for _, svc := range []*service.Service{on, off} {
		lines, err := serviceLines(ctx, svc, &warm)
		r.verifyLines(lines, err, e, 1)
		r.collectSystemSpans(traceOf(lines), nil, svc)
	}
	var rows, offRows []ledgerRow
	var overhead []float64
	agreeing := 0
	for range ledgerReps {
		for _, svc := range []*service.Service{on, off} {
			var lines []wire.Line
			d, allocs, bytes, err := measure(func() (err error) {
				lines, err = serviceLines(ctx, svc, &req)
				return err
			})
			r.verifyLines(lines, err, e, k)
			if err != nil {
				return nil, err
			}
			row := newRow("Service.Sample", k, d, allocs, bytes)
			if svc == off {
				offRows = append(offRows, row)
				continue
			}
			rows = append(rows, row)
			var engine time.Duration
			for _, ln := range lines {
				engine += time.Duration(ln.Stats.DurationNS)
			}
			overhead = append(overhead, float64(d-engine)/float64(k))
			tid := traceOf(lines)
			spans, _ := on.TraceDump(tid)
			r.collectSystemSpans(tid, nil, on)
			for _, sp := range spans {
				if sp.Name == "service.sample" || sp.Name == "engine.stream" {
					c := agreementCheck{Span: sp.Name, OutsideNS: d.Nanoseconds(), SpanNS: sp.DurationNS,
						Agree: agree(d, time.Duration(sp.DurationNS))}
					lg.Checks = append(lg.Checks, c)
					if c.Agree {
						agreeing++
					}
				}
			}
		}
	}
	lg.Rows = append(lg.Rows, medianRow(rows))
	lg.ServiceOverheadNs = quantile(overhead, 0.5)
	lg.TelemetryRatio = lg.Rows[3].NsPerSample / medianRow(offRows).NsPerSample
	if len(lg.Checks) > 0 {
		lg.SpanAgreement = float64(agreeing) / float64(len(lg.Checks))
	}

	// Rows 5 and 6: the daemon over loopback HTTP, then one coordinator
	// hop in front of that daemon (same pool key, so both rows continue
	// the daemon's pooled chain).
	dm, err := startDaemon(service.Config{})
	if err != nil {
		return nil, err
	}
	defer dm.close()
	client := newClient()
	defer client.CloseIdleConnections()
	coord, err := newCoordinator(ctx, dm)
	if err != nil {
		return nil, err
	}
	defer coord.Close()
	lines, _, err := httpLines(ctx, client, dm.url, &warm)
	r.verifyLines(lines, err, e, 1)
	rows = rows[:0]
	for range ledgerReps {
		var lines []wire.Line
		var headers time.Time
		t0 := time.Now()
		d, allocs, bytes, err := measure(func() (err error) {
			lines, headers, err = httpLines(ctx, client, dm.url, &req)
			return err
		})
		r.verifyLines(lines, err, e, k)
		if err != nil {
			return nil, err
		}
		r.addTTFB(headers.Sub(t0))
		r.collectSystemSpans(traceOf(lines), nil, dm.svc)
		rows = append(rows, newRow("HTTP daemon", k, d, allocs, bytes))
	}
	lg.Rows = append(lg.Rows, medianRow(rows))
	rows = rows[:0]
	for range ledgerReps {
		var lines []wire.Line
		d, allocs, bytes, err := measure(func() (err error) {
			lines, err = coordLines(ctx, coord, &req)
			return err
		})
		r.verifyLines(lines, err, e, k)
		if err != nil {
			return nil, err
		}
		r.collectSystemSpans(traceOf(lines), coord, dm.svc)
		rows = append(rows, newRow("coordinator hop", k, d, allocs, bytes))
	}
	lg.Rows = append(lg.Rows, medianRow(rows))
	for i := range lg.Rows {
		lg.Rows[i].LayerNs = lg.Rows[i].NsPerSample
		if i > 0 {
			lg.Rows[i].LayerNs -= lg.Rows[i-1].NsPerSample
		}
	}

	// One coordinator hop per single-sample request: a coordinated
	// request minus the direct daemon request right before it.
	one := req
	one.Samples = 1
	for start := time.Now(); len(lg.HopsMS) < 5 || time.Since(start) < r.sc.probe; {
		t0 := time.Now()
		lines, _, err := httpLines(ctx, client, dm.url, &one)
		direct := time.Since(t0)
		r.verifyLines(lines, err, e, 1)
		t1 := time.Now()
		lines, err = coordLines(ctx, coord, &one)
		hop := time.Since(t1) - direct
		r.verifyLines(lines, err, e, 1)
		if err != nil {
			return nil, err
		}
		lg.HopsMS = append(lg.HopsMS, ms(hop))
	}
	after, err := coord.Metrics(ctx)
	if err != nil {
		return nil, err
	}
	lg.routing = routingBetween(wire.Metrics{}, after)
	return lg, nil
}

// engineRows drives the chain's engine directly, as Sampler.Step does:
// core.Engine.Steps for ParGlobalES, curveball.Engine's global step
// plus the write-back of the edges for GlobalCurveball. It returns the
// kernel-rounds row and the engine row.
func engineRows(ctx context.Context, r *run, k int, e *expect) (ledgerRow, ledgerRow, error) {
	mt := r.main
	g, err := gen.GraphFromSequence(mt.degrees)
	if err != nil {
		return ledgerRow{}, ledgerRow{}, err
	}
	var step func() error
	var rounds func() time.Duration
	if mt.alg == gesmc.GlobalCurveball {
		eng := curveball.NewEngine(g, mt.workers, r.seed)
		defer eng.Close()
		step = func() error {
			eng.GlobalStep()
			eng.WriteEdges(g.Edges())
			return nil
		}
		rounds = func() time.Duration { st := eng.Stats(); return st.FirstRoundTime + st.LaterRoundsTime }
	} else {
		eng, err := core.NewEngine(g, core.AlgParGlobalES, core.Config{Workers: mt.workers, Seed: r.seed})
		if err != nil {
			return ledgerRow{}, ledgerRow{}, err
		}
		defer eng.Close()
		step = func() error {
			_, err := eng.Steps(ctx, 1)
			return err
		}
		rounds = func() time.Duration { st := eng.Stats(); return st.FirstRoundTime + st.LaterRoundsTime }
	}
	if err := step(); err != nil {
		return ledgerRow{}, ledgerRow{}, err
	}
	before := rounds()
	d, allocs, bytes, err := measure(func() error {
		for range k {
			if err := step(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return ledgerRow{}, ledgerRow{}, err
	}
	kernel := ledgerRow{Layer: "kernel rounds", Samples: k, NsPerSample: float64(rounds()-before) / float64(k)}
	ln := wire.Line{Cursor: 1, Nodes: g.N(), Edges: pairs(g.Edges()), Stats: &wire.Stats{Uniformity: "mcmc"}}
	var v verifier
	t := tally{expected: 1}
	t.line(r, &v, e, &ln, 0)
	r.count(t)
	return kernel, newRow("Engine.Steps", k, d, allocs, bytes), nil
}

func pairs(edges []graph.Edge) [][2]uint32 {
	out := make([][2]uint32, len(edges))
	for i, ed := range edges {
		out[i] = [2]uint32{ed.U(), ed.V()}
	}
	return out
}

// verifyLines checks a finished stream's lines and counts them; err is
// the stream's own failure, if any.
func (r *run) verifyLines(lines []wire.Line, err error, e *expect, expected int) {
	if err != nil {
		r.fail(err)
	}
	var v verifier
	t := tally{expected: expected}
	for i := range lines {
		t.line(r, &v, e, &lines[i], i)
	}
	r.count(t)
}

func traceOf(lines []wire.Line) string {
	if len(lines) == 0 || lines[0].Stats == nil {
		return ""
	}
	return lines[0].Stats.TraceID
}

// traceFile is the document a traced run writes.
type traceFile struct {
	Workload    string               `json:"workload"`
	Seed        uint64               `json:"seed"`
	Hardware    map[string]any       `json:"hardware"`
	SpeedupWN   *float64             `json:"conc_speedup_wN"`
	PerLayer    map[string]metric    `json:"per_layer"`
	Ledger      *ledger              `json:"ledger"`
	Suspects    []verdict            `json:"suspects"`
	SelfMS      map[string]float64   `json:"self_ms"`
	Spans       []span               `json:"spans"`
	SystemSpans []telemetry.SpanDump `json:"system_spans"`
}

// writeTrace writes the traced run's spans, ledger and verdicts to
// dir/<workload>-<seed>.json and prints the ledger and verdicts on
// standard error.
func (r *run) writeTrace(dir string) error {
	topo := conc.Topology()
	doc := traceFile{
		Workload: r.workload,
		Seed:     r.seed,
		Hardware: map[string]any{
			"num_cpu": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
			"l2_bytes": topo.L2Bytes, "llc_bytes": topo.LLCBytes,
			"llc_sharers": topo.LLCSharers, "cache_detected": topo.Detected,
		},
		SpeedupWN:   r.speedup,
		PerLayer:    r.layers,
		Ledger:      r.ledger,
		Suspects:    r.verdicts,
		SelfMS:      selfTimes(r.tracer.spans),
		Spans:       r.tracer.spans,
		SystemSpans: r.sysSpans,
	}
	data, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-%d.json", r.workload, r.seed))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	w := os.Stderr
	fmt.Fprintf(w, "perfbench: %s ledger (%d samples per row, ns per sample):\n", r.workload, r.ledger.Rows[0].Samples)
	for i, row := range r.ledger.Rows {
		fmt.Fprintf(w, "  %d. %-26s %14.0f  layer %14.0f\n", i+1, row.Layer, row.NsPerSample, row.LayerNs)
	}
	for _, v := range r.verdicts {
		fmt.Fprintf(w, "perfbench: suspect %-11s %-9s %5.1f%% of wall time (%s = %.4g)\n",
			v.Key, v.Verdict, 100*v.Share, v.Metric, v.Value)
	}
	fmt.Fprintf(w, "perfbench: trace written to %s\n", path)
	return nil
}
