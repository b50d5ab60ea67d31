package main

import (
	"context"
	"fmt"
	"time"

	"gesmc"
)

// runBurnin is the burnin-powerlaw workload, the paper's own experiment
// and a library user's null-model run: one in-process caller in a
// closed loop compiles a ParGlobalES sampler over a large power-law
// target with workers = nproc and the default schedule (10 swaps per
// edge of burn-in), then draws the first mixed sample and a short
// ensemble. No wire, service or HTTP code runs, so a kernel gain shows
// here and a wire gain must not.
func runBurnin(ctx context.Context, r *run) error {
	degrees := powerLawDegrees(r.rng, r.sc.burninN)
	r.main = mainTarget{degrees: degrees, alg: gesmc.ParGlobalES, workers: r.nproc}
	var target *gesmc.Graph
	setup := func() error {
		t0 := time.Now()
		g, err := gesmc.FromDegrees(degrees)
		if err != nil {
			return fmt.Errorf("realize target: %w", err)
		}
		r.setup = append(r.setup, time.Since(t0))
		if target == nil {
			target = g
		}
		return nil
	}
	e := undirected(degrees, "mcmc")
	var v verifier
	return r.measure(setup, func(i int) error {
		return r.burninRequest(ctx, target.Clone(), e, &v, i)
	})
}

// burninRequest compiles a sampler over g and draws the request's
// samples, verifying each in place. Its times leave out the
// verification.
func (r *run) burninRequest(ctx context.Context, g *gesmc.Graph, e *expect, v *verifier, i int) error {
	tr := r.tracerFor(i)
	root := tr.begin(0, 0, "request")
	defer func() { tr.end(root) }()
	sp := tr.begin(root.Trace, root.ID, "sampler.new")
	t0 := time.Now()
	s, err := gesmc.NewSampler(g,
		gesmc.WithAlgorithm(gesmc.ParGlobalES),
		gesmc.WithWorkers(r.nproc),
		gesmc.WithSeed(r.seed<<16+uint64(i)))
	busy := time.Since(t0)
	tr.end(sp)
	if err != nil {
		return fmt.Errorf("NewSampler: %w", err)
	}
	defer s.Close()
	r.compile = append(r.compile, busy)

	q := request{traced: tr != nil}
	t := tally{expected: r.sc.burninSamples}
	var gaps []time.Duration
	for k := 0; k < r.sc.burninSamples; k++ {
		sp := tr.begin(root.Trace, root.ID, "sampler.sample")
		t0 := time.Now()
		st, err := s.SampleContext(ctx)
		d := time.Since(t0)
		tr.end(sp)
		if err != nil {
			r.fail(fmt.Errorf("Sample: %w", err))
			break
		}
		busy += d
		if k == 0 {
			q.first = busy
			r.addBurnin(d)
		} else {
			gaps = append(gaps, d)
		}
		vs := tr.begin(root.Trace, root.ID, "verify")
		ln := sampleLine(gesmc.Sample{Index: k, Graph: g, Stats: st})
		t.line(r, v, e, &ln, k)
		tr.end(vs)
	}
	q.total = busy
	r.record(q, gaps, t, false)
	return nil
}
