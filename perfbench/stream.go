package main

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"gesmc"
	"gesmc/internal/service"
	"gesmc/wire"
)

// runStream is the stream-http workload: one client in a closed loop on
// one loopback connection to an in-process daemon sends back-to-back
// requests that each stream thinning-1 GlobalCurveball samples of a
// fixed mid-size power-law target from the daemon's pooled engine.
// Curveball trades are the cheapest superstep, so the layers above the
// kernel (write-back, snapshot, NDJSON encode, HTTP, client decode)
// take their largest share of the time here.
func runStream(ctx context.Context, r *run) error {
	degrees := powerLawDegrees(r.rng, r.sc.streamN)
	r.main = mainTarget{degrees: degrees, alg: gesmc.GlobalCurveball, workers: 1}
	req := wire.SampleRequest{
		Degrees:   degrees,
		Algorithm: gesmc.GlobalCurveball.String(),
		Workers:   1,
		Seed:      r.seed,
		Thinning:  1,
		Samples:   r.sc.streamSamples,
	}
	e := undirected(degrees, "mcmc")
	client := newClient()
	defer client.CloseIdleConnections()
	var v verifier

	// Set-up: boot a daemon and warm its pool with one cold request
	// (target realization, compile, burn-in) under the measured key.
	// The first daemon serves the measured requests; the later set-ups
	// are timed and closed.
	var d *daemon
	defer func() {
		if d != nil {
			d.close()
		}
	}()
	setup := func() error {
		t0 := time.Now()
		x, err := startDaemon(service.Config{})
		if err != nil {
			return err
		}
		warm := req
		warm.Samples = 1
		q, _, t := r.httpRequest(ctx, client, x, &warm, e, &v, time.Now(), nil)
		r.count(t)
		r.setup = append(r.setup, time.Since(t0))
		r.addBurnin(q.first)
		if d == nil {
			d = x
		} else {
			x.close()
		}
		return nil
	}
	return r.measure(setup, func(i int) error {
		q, gaps, t := r.httpRequest(ctx, client, d, &req, e, &v, time.Now(), r.tracerFor(i))
		r.record(q, gaps, t, true)
		return nil
	})
}

// httpRequest posts req to a daemon, decodes the stream with
// wire.DecodeLines and verifies each line as it arrives. Times count
// from start.
func (r *run) httpRequest(ctx context.Context, c *http.Client, d *daemon, req *wire.SampleRequest, e *expect, v *verifier, start time.Time, tr *tracer) (request, []time.Duration, tally) {
	q := request{traced: tr != nil}
	t := tally{expected: req.Samples - req.ResumeFrom}
	root := tr.begin(0, 0, "request")
	defer func() { tr.end(root) }()

	hs := tr.begin(root.Trace, root.ID, "http.headers")
	resp, err := open(ctx, c, d.url, req)
	tr.end(hs)
	if err != nil {
		r.fail(fmt.Errorf("stream request: %w", err))
		q.total = time.Since(start)
		return q, nil, t
	}
	defer resp.Body.Close()
	r.addTTFB(time.Since(start))

	var gaps []time.Duration
	var last time.Time
	var traceID string
	wait := tr.begin(root.Trace, root.ID, "stream.next")
	err = wire.DecodeLines(resp.Body, func(ln wire.Line) error {
		now := time.Now()
		tr.end(wait)
		if t.lines == 0 {
			q.first = now.Sub(start)
		} else {
			gaps = append(gaps, now.Sub(last))
		}
		last = now
		if traceID == "" && ln.Stats != nil {
			traceID = ln.Stats.TraceID
		}
		vs := tr.begin(root.Trace, root.ID, "verify")
		t.line(r, v, e, &ln, req.ResumeFrom+t.lines)
		tr.end(vs)
		wait = tr.begin(root.Trace, root.ID, "stream.next")
		return nil
	})
	tr.end(wait)
	q.total = time.Since(start)
	if err != nil {
		r.fail(fmt.Errorf("decode stream: %w", err))
	}
	if tr != nil && traceID != "" {
		r.collectSystemSpans(traceID, nil, d.svc)
	}
	return q, gaps, t
}
