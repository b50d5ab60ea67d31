package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"gesmc/wire"
)

func postSample(t *testing.T, url string, req wire.SampleRequest) *http.Response {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/sample", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeAll(t *testing.T, r io.Reader) []wire.Line {
	t.Helper()
	var lines []wire.Line
	if err := wire.DecodeLines(r, func(ln wire.Line) error {
		lines = append(lines, ln)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return lines
}

// degreesOf recomputes the (sorted) degree sequence of an edge list.
func degreesOf(nodes int, edges [][2]uint32) []int {
	deg := make([]int, nodes)
	for _, e := range edges {
		deg[e[0]]++
		deg[e[1]]++
	}
	sort.Ints(deg)
	return deg
}

func TestServerStreamsEnsembleNDJSON(t *testing.T) {
	svc := New(Config{WorkerBudget: 2})
	ts := httptest.NewServer(NewHandler(svc))
	defer ts.Close()
	defer svc.Shutdown(context.Background())

	want := []int{4, 3, 3, 2, 2, 2, 1, 1}
	resp := postSample(t, ts.URL, wire.SampleRequest{
		Degrees: want, Samples: 5, Seed: 11, Algorithm: "ParGlobalES",
	})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	lines := decodeAll(t, resp.Body)
	if len(lines) != 5 {
		t.Fatalf("%d lines, want 5", len(lines))
	}
	sorted := append([]int(nil), want...)
	sort.Ints(sorted)
	for i, ln := range lines {
		if ln.Error != "" {
			t.Fatalf("line %d: error %q", i, ln.Error)
		}
		if ln.Index != i {
			t.Fatalf("line %d has index %d", i, ln.Index)
		}
		got := degreesOf(ln.Nodes, ln.Edges)
		for j := range sorted {
			if got[j] != sorted[j] {
				t.Fatalf("line %d: degree sequence %v, want %v", i, got, sorted)
			}
		}
		if ln.Stats == nil || ln.Stats.Supersteps == 0 {
			t.Fatalf("line %d: missing stats", i)
		}
		// Every sampled graph must rebuild as a simple graph.
		g, _, err := ln.Graph()
		if err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		if err := g.CheckSimple(); err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
	}
}

// TestServerConcurrentMixedTargets drives undirected, directed,
// bipartite, and explicit-edge-list requests concurrently against one
// server; under -race this is the service's main concurrency gate.
func TestServerConcurrentMixedTargets(t *testing.T) {
	svc := New(Config{WorkerBudget: 4, QueueLimit: 64, PoolCapacity: 4})
	ts := httptest.NewServer(NewHandler(svc))
	defer ts.Close()
	defer svc.Shutdown(context.Background())

	reqs := []wire.SampleRequest{
		{Degrees: []int{3, 3, 2, 2, 2, 2}, Samples: 3, Seed: 1},
		{OutDegrees: []int{2, 2, 1, 0}, InDegrees: []int{1, 1, 1, 2}, Samples: 3, Seed: 2},
		{BipartiteLeft: []int{2, 2, 1}, BipartiteRight: []int{2, 2, 1}, Samples: 3, Seed: 3},
		{Edges: [][2]uint32{{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 2}}, Samples: 3, Seed: 4},
		{Edges: [][2]uint32{{0, 1}, {1, 0}, {1, 2}, {2, 0}}, Directed: true, Samples: 3, Seed: 5},
		{Degrees: []int{3, 3, 2, 2, 2, 2}, Samples: 3, Seed: 1, Algorithm: "GlobalCurveball"},
	}
	var wg sync.WaitGroup
	for round := 0; round < 3; round++ {
		for i, req := range reqs {
			wg.Add(1)
			go func(i int, req wire.SampleRequest) {
				defer wg.Done()
				resp := postSample(t, ts.URL, req)
				defer resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					msg, _ := io.ReadAll(resp.Body)
					t.Errorf("req %d: status %d: %s", i, resp.StatusCode, msg)
					return
				}
				lines := decodeAll(t, resp.Body)
				if len(lines) != 3 {
					t.Errorf("req %d: %d lines", i, len(lines))
					return
				}
				for _, ln := range lines {
					if ln.Error != "" {
						t.Errorf("req %d: %s", i, ln.Error)
						return
					}
					g, dg, err := ln.Graph()
					if err != nil {
						t.Errorf("req %d: %v", i, err)
						return
					}
					if g != nil {
						err = g.CheckSimple()
					} else {
						err = dg.CheckSimple()
					}
					if err != nil {
						t.Errorf("req %d: %v", i, err)
					}
				}
			}(i, req)
		}
	}
	wg.Wait()

	m := svc.Metrics()
	if m.RequestsTotal != int64(3*len(reqs)) {
		t.Fatalf("requests_total=%d", m.RequestsTotal)
	}
	if m.RequestsInflight != 0 || m.WorkersBusy != 0 || m.QueueDepth != 0 {
		t.Fatalf("leaked accounting: %+v", m)
	}
	if m.SamplesTotal != int64(3*len(reqs)*3) {
		t.Fatalf("samples_total=%d", m.SamplesTotal)
	}
}

// TestPoolHitRateRises is the engine-reuse gate: repeated identical
// requests must hit the pool (skipping sampler construction), and the
// hit-rate metric must rise.
func TestPoolHitRateRises(t *testing.T) {
	svc := New(Config{WorkerBudget: 2, PoolCapacity: 4})
	ts := httptest.NewServer(NewHandler(svc))
	defer ts.Close()
	defer svc.Shutdown(context.Background())

	req := wire.SampleRequest{Degrees: []int{3, 2, 2, 2, 1}, Samples: 2, Seed: 5}
	var prevRate float64
	for i := 0; i < 4; i++ {
		resp := postSample(t, ts.URL, req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("round %d: status %d", i, resp.StatusCode)
		}
		if lines := decodeAll(t, resp.Body); len(lines) != 2 {
			t.Fatalf("round %d: %d lines", i, len(lines))
		}
		resp.Body.Close()

		m := svc.Metrics()
		if i == 0 {
			if m.Pool.Misses != 1 || m.Pool.Hits != 0 {
				t.Fatalf("cold request: hits=%d misses=%d", m.Pool.Hits, m.Pool.Misses)
			}
		} else {
			// Every warm request reuses the single compiled engine:
			// misses stay at 1, hits (and the rate) keep rising.
			if m.Pool.Misses != 1 {
				t.Fatalf("round %d recompiled: misses=%d", i, m.Pool.Misses)
			}
			if m.Pool.Hits != int64(i) {
				t.Fatalf("round %d: hits=%d", i, m.Pool.Hits)
			}
			if m.Pool.HitRate <= prevRate {
				t.Fatalf("round %d: hit rate %v did not rise above %v", i, m.Pool.HitRate, prevRate)
			}
			prevRate = m.Pool.HitRate
		}
		if m.Pool.Engines != 1 {
			t.Fatalf("round %d: %d pooled engines", i, m.Pool.Engines)
		}
	}
}

// TestDeterministicSeeds: against a cold service, a request's seed
// fully determines the sampled edge lists; different seeds diverge.
func TestDeterministicSeeds(t *testing.T) {
	run := func(seed uint64) [][][2]uint32 {
		svc := New(Config{WorkerBudget: 2})
		ts := httptest.NewServer(NewHandler(svc))
		defer ts.Close()
		defer svc.Shutdown(context.Background())
		resp := postSample(t, ts.URL, wire.SampleRequest{
			Degrees: []int{4, 3, 3, 2, 2, 2, 1, 1}, Samples: 3, Seed: seed, Workers: 2,
		})
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
		var out [][][2]uint32
		for _, ln := range decodeAll(t, resp.Body) {
			if ln.Error != "" {
				t.Fatal(ln.Error)
			}
			out = append(out, ln.Edges)
		}
		return out
	}
	a, b, c := run(7), run(7), run(8)
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatal("same seed produced different ensembles on fresh services")
	}
	if fmt.Sprint(a) == fmt.Sprint(c) {
		t.Fatal("different seeds produced identical ensembles")
	}
}

// TestCancelMidStream: a client that walks away mid-ensemble must not
// leak the job — the worker tokens return to the budget and the engine
// returns to the pool, still usable.
func TestCancelMidStream(t *testing.T) {
	svc := New(Config{WorkerBudget: 1, PoolCapacity: 2})
	ts := httptest.NewServer(NewHandler(svc))
	defer ts.Close()
	defer svc.Shutdown(context.Background())

	req := wire.SampleRequest{Degrees: []int{3, 2, 2, 2, 1}, Samples: 1_000_000, Seed: 3, Thinning: 1, BurnIn: 1}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	hreq, err := http.NewRequestWithContext(ctx, "POST", ts.URL+"/v1/sample", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(resp.Body)
	for i := 0; i < 2; i++ {
		var ln wire.Line
		if err := dec.Decode(&ln); err != nil {
			t.Fatal(err)
		}
		if ln.Error != "" {
			t.Fatal(ln.Error)
		}
	}
	cancel()
	resp.Body.Close()

	deadline := time.Now().Add(10 * time.Second)
	for {
		m := svc.Metrics()
		if m.RequestsInflight == 0 && m.WorkersBusy == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job leaked after client cancellation: %+v", m)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The interrupted engine went back to the pool and serves the next
	// request (budget 1: a leaked token would deadlock this).
	resp2 := postSample(t, ts.URL, wire.SampleRequest{Degrees: []int{3, 2, 2, 2, 1}, Samples: 1, Seed: 3, Thinning: 1, BurnIn: 1})
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("post-cancel request: status %d", resp2.StatusCode)
	}
	if lines := decodeAll(t, resp2.Body); len(lines) != 1 || lines[0].Error != "" {
		t.Fatalf("post-cancel request: %+v", lines)
	}
	if m := svc.Metrics(); m.Pool.Hits < 1 {
		t.Fatalf("interrupted engine was not reused: %+v", m.Pool)
	}
}

// TestOverloadRejection saturates a budget-1, queue-1 service with a
// blocked job and checks the admission ladder: one waiter queues, the
// next caller is rejected typed (and mapped to HTTP 429).
func TestOverloadRejection(t *testing.T) {
	svc := New(Config{WorkerBudget: 1, QueueLimit: 1, PoolCapacity: 2})
	ts := httptest.NewServer(NewHandler(svc))
	defer ts.Close()
	defer svc.Shutdown(context.Background())

	mkReq := func(samples int) *Request {
		r, err := FromWire(&wire.SampleRequest{Degrees: []int{3, 2, 2, 2, 1}, Samples: samples, Seed: 1, BurnIn: 1, Thinning: 1})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}

	// Job 1 holds the single worker token until released.
	gate := make(chan struct{})
	started := make(chan struct{})
	job1 := make(chan error, 1)
	go func() {
		var once sync.Once
		job1 <- svc.Sample(context.Background(), mkReq(2), func(wire.Line) error {
			once.Do(func() { close(started) })
			<-gate
			return nil
		})
	}()
	<-started

	// Job 2 fills the one queue slot.
	job2 := make(chan error, 1)
	go func() {
		job2 <- svc.Sample(context.Background(), mkReq(1), func(wire.Line) error { return nil })
	}()
	waitFor(t, func() bool { return svc.Metrics().QueueDepth == 1 })

	// Job 3 (direct): typed overload error.
	if err := svc.Sample(context.Background(), mkReq(1), func(wire.Line) error { return nil }); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("err=%v, want ErrOverloaded", err)
	}
	// Job 4 (HTTP): 429 with a machine-readable code.
	resp := postSample(t, ts.URL, wire.SampleRequest{Degrees: []int{3, 2, 2, 2, 1}, Samples: 1})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	var we wire.Error
	if err := json.NewDecoder(resp.Body).Decode(&we); err != nil || we.Code != "overloaded" {
		t.Fatalf("body %+v err %v", we, err)
	}
	if m := svc.Metrics(); m.RequestsRejected != 2 {
		t.Fatalf("requests_rejected=%d, want 2", m.RequestsRejected)
	}

	close(gate)
	if err := <-job1; err != nil {
		t.Fatalf("job1: %v", err)
	}
	if err := <-job2; err != nil {
		t.Fatalf("job2: %v", err)
	}
}

// TestShutdownDrains: Shutdown lets the in-flight stream finish, then
// refuses new work and closes every pooled gang.
func TestShutdownDrains(t *testing.T) {
	svc := New(Config{WorkerBudget: 2, PoolCapacity: 4})

	req, err := FromWire(&wire.SampleRequest{Degrees: []int{3, 2, 2, 2, 1}, Samples: 3, Seed: 2, BurnIn: 1, Thinning: 1})
	if err != nil {
		t.Fatal(err)
	}
	started := make(chan struct{})
	gate := make(chan struct{})
	var got []wire.Line
	jobDone := make(chan error, 1)
	go func() {
		var once sync.Once
		jobDone <- svc.Sample(context.Background(), req, func(ln wire.Line) error {
			once.Do(func() { close(started) })
			<-gate
			got = append(got, ln)
			return nil
		})
	}()
	<-started

	shutDone := make(chan error, 1)
	go func() { shutDone <- svc.Shutdown(context.Background()) }()
	waitFor(t, func() bool { return svc.Health().Status == "draining" })

	// New work is refused while draining.
	if err := svc.Sample(context.Background(), req, func(wire.Line) error { return nil }); !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("err=%v, want ErrShuttingDown", err)
	}

	close(gate)
	if err := <-jobDone; err != nil {
		t.Fatalf("in-flight job: %v", err)
	}
	if err := <-shutDone; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if len(got) != 3 {
		t.Fatalf("drained job delivered %d samples, want 3", len(got))
	}
	if m := svc.Metrics(); m.Pool.Engines != 0 {
		t.Fatalf("%d pooled engines survived shutdown", m.Pool.Engines)
	}
}

func TestHealthAndMetricsEndpoints(t *testing.T) {
	svc := New(Config{WorkerBudget: 2})
	ts := httptest.NewServer(NewHandler(svc))
	defer ts.Close()
	defer svc.Shutdown(context.Background())

	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h wire.Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil || h.Status != "ok" {
		t.Fatalf("health %+v err %v", h, err)
	}

	postSample(t, ts.URL, wire.SampleRequest{Degrees: []int{2, 1, 1}, Samples: 1}).Body.Close()
	resp2, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var m wire.Metrics
	if err := json.NewDecoder(resp2.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if m.WorkerBudget != 2 || m.RequestsTotal < 1 || m.SuperstepsTotal < 1 {
		t.Fatalf("metrics %+v", m)
	}
}

func TestRequestValidationErrors(t *testing.T) {
	cases := []struct {
		name string
		req  wire.SampleRequest
	}{
		{"no target", wire.SampleRequest{Samples: 1}},
		{"two targets", wire.SampleRequest{Degrees: []int{1, 1}, Edges: [][2]uint32{{0, 1}}}},
		{"inout mismatch", wire.SampleRequest{OutDegrees: []int{1}, InDegrees: []int{1, 0}}},
		{"bad algorithm", wire.SampleRequest{Degrees: []int{1, 1}, Algorithm: "Metropolis"}},
		{"negative samples", wire.SampleRequest{Degrees: []int{1, 1}, Samples: -1}},
		{"negative timeout", wire.SampleRequest{Degrees: []int{1, 1}, TimeoutMS: -5}},
		{"negative degree", wire.SampleRequest{Degrees: []int{2, -1, 1}}},
		{"half bipartite", wire.SampleRequest{BipartiteLeft: []int{1}}},
		{"burn-in overflowing int", wire.SampleRequest{Degrees: []int{1, 1}, SwapsPerEdge: 1e300}},
	}
	for _, c := range cases {
		if _, err := FromWire(&c.req); !errors.Is(err, ErrBadRequest) {
			t.Errorf("%s: err=%v, want ErrBadRequest", c.name, err)
		}
	}
	// Infeasible-but-well-formed specs are caught by the realizability
	// gates at validation time — before target compilation — for every
	// sequence-target class.
	for _, c := range []struct {
		name string
		req  wire.SampleRequest
	}{
		{"non-graphical", wire.SampleRequest{Degrees: []int{3, 1}}},
		{"non-digraphical", wire.SampleRequest{OutDegrees: []int{2, 0}, InDegrees: []int{1, 1}}},
		{"non-bigraphical", wire.SampleRequest{BipartiteLeft: []int{2, 2}, BipartiteRight: []int{3, 1}}},
	} {
		if _, err := FromWire(&c.req); !errors.Is(err, ErrBadRequest) {
			t.Errorf("%s: err=%v, want ErrBadRequest", c.name, err)
		}
	}
	// And over HTTP they map to 400.
	svc := New(Config{WorkerBudget: 1})
	ts := httptest.NewServer(NewHandler(svc))
	defer ts.Close()
	defer svc.Shutdown(context.Background())
	resp := postSample(t, ts.URL, wire.SampleRequest{Degrees: []int{3, 1}})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
}

// TestServerRefusesOverflowingSwapsPerEdge: a swaps_per_edge whose
// ceil(2s) burn-in does not fit in an int is a typed 400 naming the
// field, not a 500 from a burn-in that wrapped negative.
func TestServerRefusesOverflowingSwapsPerEdge(t *testing.T) {
	svc := New(Config{WorkerBudget: 1})
	ts := httptest.NewServer(NewHandler(svc))
	defer ts.Close()
	defer svc.Shutdown(context.Background())
	resp, err := http.Post(ts.URL+"/v1/sample", "application/json",
		strings.NewReader(`{"degrees":[4,3,3,2,2,2,1,1],"swaps_per_edge":1e300}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body wire.Error
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest || body.Code != "bad_request" ||
		!strings.Contains(body.Error, "swaps_per_edge") {
		t.Fatalf("status %d body %+v, want 400 bad_request naming swaps_per_edge", resp.StatusCode, body)
	}
}
