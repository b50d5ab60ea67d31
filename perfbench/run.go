package main

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"gesmc/internal/cluster"
	"gesmc/internal/service"
	"gesmc/internal/telemetry"
)

// scale sizes a run. fullScale is the benchmark; the self-test runs
// tinyScale, which finishes every workload in about a second.
type scale struct {
	seconds   time.Duration // measured window
	setupReps int           // set-ups per run; setup_s is their median

	burninN       int // nodes of the burn-in target; 2^16 puts its edge set beyond L2
	burninSamples int // samples per burn-in request: the first mixed one plus a short ensemble

	streamN       int // nodes of the streamed target
	streamSamples int // thinning-1 samples per stream request

	hotKeys int     // hot degree sequences of cluster-mixed
	mixN    int     // nodes of the cluster-mixed targets
	exactN  int     // nodes of the bounded-degree exact-tier targets
	rate    float64 // cluster-mixed arrivals per second

	probe time.Duration // time budget of one layer probe
}

var fullScale = scale{
	setupReps:     9,
	burninN:       1 << 16,
	burninSamples: 2,
	streamN:       1 << 14,
	streamSamples: 10,
	hotKeys:       3,
	mixN:          1 << 9,
	exactN:        300,
	rate:          10,
	probe:         400 * time.Millisecond,
}

var tinyScale = scale{
	seconds:       300 * time.Millisecond,
	setupReps:     1,
	burninN:       1 << 10,
	burninSamples: 2,
	streamN:       1 << 9,
	streamSamples: 3,
	hotKeys:       2,
	mixN:          1 << 7,
	exactN:        40,
	rate:          30,
	probe:         20 * time.Millisecond,
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of the benchmark's standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// request is the client-side record of one request (or closed-loop
// iteration).
type request struct {
	first  time.Duration // start (due time in the open loop) → first sample
	total  time.Duration // start → last sample
	traced bool
}

// run is one benchmark run: its inputs, the client-side record of every
// request, and the verification tally.
type run struct {
	workload string
	sc       scale
	seed     uint64
	rng      *rand.Rand
	nproc    int
	tracer   *tracer // nil in an untraced run

	// Set by the workload driver.
	main    mainTarget      // the target and chain the layer probes reuse
	setup   []time.Duration // one per set-up repetition
	compile []time.Duration // NewSampler calls the driver timed itself
	wall    time.Duration   // the measured window
	routing *routing        // the coordinator's placement over the measured window

	mu         sync.Mutex
	burnins    []time.Duration // engine ready (or cold request) → first mixed sample
	requests   []request
	gaps       []float64 // per request: mean ms between its consecutive samples
	lags       []float64 // ms an open-loop request started after its due time
	ttfb       []float64 // ms from an HTTP request to its response headers
	samples    int64     // verified samples of measured requests
	served     int64     // edges of verified samples the service encoded and streamed
	tradeEdges int64     // edges × supersteps of verified GlobalCurveball samples
	exactDraws int64     // draws behind verified exact-tier samples
	attempted  int64
	failed     int64
	reasons    []string
	sysSpans   []telemetry.SpanDump // the system's own spans of traced requests

	layers   map[string]metric
	ledger   *ledger
	verdicts []verdict
	speedup  *float64 // conc.speedup_wN; nil when the workers exceed the CPUs
}

func newRun(workload string, sc scale, seed uint64, traced bool) *run {
	r := &run{
		workload: workload,
		sc:       sc,
		seed:     seed,
		rng:      rand.New(rand.NewPCG(seed, 0x9E3779B97F4A7C15)),
		nproc:    runtime.GOMAXPROCS(0),
	}
	if traced {
		r.tracer = newTracer()
	}
	return r
}

// execute runs one workload and returns its result. A traced run also
// writes its trace file into traceDir.
func execute(ctx context.Context, workload string, sc scale, seed uint64, traced bool, traceDir string) (*result, error) {
	drive, ok := drivers[workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", workload)
	}
	r := newRun(workload, sc, seed, traced)
	heap := watchHeap()
	err := drive(ctx, r)
	peak := heap.stop()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", workload, err)
	}
	if err := crossPathCheck(ctx, r); err != nil {
		return nil, fmt.Errorf("cross-path check: %w", err)
	}
	var m map[string]metric
	if traced {
		if err := probeLayers(ctx, r); err != nil {
			return nil, fmt.Errorf("layer probes: %w", err)
		}
		if err := r.writeTrace(traceDir); err != nil {
			return nil, err
		}
		m = r.layers
	} else if m, err = r.endToEnd(peak); err != nil {
		return nil, err
	}
	for _, reason := range r.reasons {
		fmt.Fprintln(os.Stderr, "perfbench: failed:", reason)
	}
	return &result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: m}, nil
}

// tracerFor returns the tracer for the i-th request: a traced run
// traces every other request, so the untraced ones measure the
// tracing overhead.
func (r *run) tracerFor(i int) *tracer {
	if i%2 == 1 {
		return r.tracer
	}
	return nil
}

// measure runs setup once, then step in a closed loop for the measured
// window, and runs the remaining set-ups between steps at even points
// of the window. The host's speed drifts over tens of seconds, so
// set-ups spread over the run give a steadier median than set-ups
// packed into its first second. The window counts only the steps.
func (r *run) measure(setup func() error, step func(i int) error) error {
	if err := setup(); err != nil {
		return err
	}
	done := 1
	var wall time.Duration
	for i := 0; i == 0 || wall < r.sc.seconds; i++ {
		if done < r.sc.setupReps && wall >= r.sc.seconds*time.Duration(done)/time.Duration(r.sc.setupReps) {
			if err := setup(); err != nil {
				return err
			}
			done++
		}
		t0 := time.Now()
		if err := step(i); err != nil {
			return err
		}
		wall += time.Since(t0)
	}
	r.wall = wall
	for ; done < r.sc.setupReps; done++ {
		if err := setup(); err != nil {
			return err
		}
	}
	return nil
}

// record adds one measured request. served marks samples the service
// encoded and streamed.
func (r *run) record(q request, gaps []time.Duration, t tally, served bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.requests = append(r.requests, q)
	if len(gaps) > 0 {
		var sum time.Duration
		for _, g := range gaps {
			sum += g
		}
		r.gaps = append(r.gaps, ms(sum)/float64(len(gaps)))
	}
	r.samples += int64(t.verified)
	if served {
		r.served += t.edges
	}
	r.tradeEdges += t.tradeEdges
	r.exactDraws += t.exactDraws
	r.countLocked(t)
}

// count adds the verification tally of lines outside the measured
// requests (set-up, probes, the cross-path check).
func (r *run) count(t tally) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.countLocked(t)
}

func (r *run) countLocked(t tally) {
	n := int64(max(t.expected, t.lines))
	r.attempted += n
	r.failed += n - int64(t.verified)
}

// fail keeps the first few failure reasons for standard error.
func (r *run) fail(err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.reasons) < 8 {
		r.reasons = append(r.reasons, err.Error())
	}
}

func (r *run) addBurnin(d time.Duration) {
	r.mu.Lock()
	r.burnins = append(r.burnins, d)
	r.mu.Unlock()
}

func (r *run) addTTFB(d time.Duration) {
	r.mu.Lock()
	r.ttfb = append(r.ttfb, ms(d))
	r.mu.Unlock()
}

func (r *run) addLag(d time.Duration) {
	r.mu.Lock()
	r.lags = append(r.lags, ms(d))
	r.mu.Unlock()
}

// collectSystemSpans keeps the system's own spans of one traced
// request: the coordinator's part of the trace and every service's.
func (r *run) collectSystemSpans(traceID string, coord *cluster.Coordinator, svcs ...*service.Service) {
	var all []telemetry.SpanDump
	if coord != nil {
		if s, ok := coord.TraceDump(traceID); ok {
			all = append(all, s...)
		}
	}
	for _, svc := range svcs {
		if s, ok := svc.TraceDump(traceID); ok {
			all = append(all, s...)
		}
	}
	r.mu.Lock()
	r.sysSpans = append(r.sysSpans, all...)
	r.mu.Unlock()
}

// endToEnd derives the end-to-end metrics. Every one must be positive:
// a zero means the run measured nothing for it.
func (r *run) endToEnd(peakHeap uint64) (map[string]metric, error) {
	var first, total []float64
	for _, q := range r.requests {
		if q.first > 0 {
			first = append(first, ms(q.first))
		}
		total = append(total, ms(q.total))
	}
	var setup, burnin []float64
	for _, d := range r.setup {
		setup = append(setup, d.Seconds())
	}
	for _, d := range r.burnins {
		burnin = append(burnin, d.Seconds())
	}
	m := map[string]metric{
		"setup_s":             {quantile(setup, 0.5), "s"},
		"burnin_s":            {quantile(burnin, 0.5), "s"},
		"samples_per_s":       {float64(r.samples) / r.wall.Seconds(), "1/s"},
		"sample_gap_ms.p50":   {quantile(r.gaps, 0.5), "ms"},
		"first_sample_ms.p50": {quantile(first, 0.5), "ms"},
		"request_ms.p50":      {quantile(total, 0.5), "ms"},
		"peak_heap_mb":        {float64(peakHeap) / (1 << 20), "MiB"},
	}
	for name, v := range m {
		if !(v.Value > 0) || math.IsInf(v.Value, 0) {
			return nil, fmt.Errorf("metric %s is %v: the run measured nothing for it", name, v.Value)
		}
	}
	return m, nil
}

// traceOverhead is the mean time of traced requests over the mean of
// untraced ones (0 when either is missing).
func (r *run) traceOverhead() float64 {
	var sum [2]float64
	var n [2]int
	for _, q := range r.requests {
		i := 0
		if q.traced {
			i = 1
		}
		sum[i] += ms(q.total)
		n[i]++
	}
	if n[0] == 0 || n[1] == 0 || sum[0] == 0 {
		return 0
	}
	return (sum[1] / float64(n[1])) / (sum[0] / float64(n[0]))
}

// quantile returns the p-quantile of xs with linear interpolation
// between order statistics, or 0 for no values.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// heapWatch samples the live heap every few milliseconds and keeps the
// peak.
type heapWatch struct {
	peak atomic.Uint64
	quit chan struct{}
	done chan struct{}
}

func watchHeap() *heapWatch {
	h := &heapWatch{quit: make(chan struct{}), done: make(chan struct{})}
	sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	go func() {
		defer close(h.done)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			if v := sample[0].Value.Uint64(); v > h.peak.Load() {
				h.peak.Store(v)
			}
			select {
			case <-h.quit:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// stop ends the sampling goroutine and returns the peak in bytes.
func (h *heapWatch) stop() uint64 {
	close(h.quit)
	<-h.done
	return h.peak.Load()
}
