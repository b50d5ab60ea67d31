package main

import (
	"context"
	"fmt"
	"math/rand/v2"

	"gesmc"
	"gesmc/internal/service"
	"gesmc/wire"
)

// crossPathCheck sends one fixed-seed request through the in-process
// Sampler, an HTTP daemon and a coordinator, verifies every line, and
// counts one failure unless the three streams have the same digest with
// stats stripped. Every path compiles a fresh engine, so all three
// start the seed's canonical stream.
func crossPathCheck(ctx context.Context, r *run) error {
	const samples = 3
	degrees := powerLawDegrees(rand.New(rand.NewPCG(r.seed, 1)), 256)
	req := wire.SampleRequest{Degrees: degrees, Seed: r.seed, Samples: samples}

	type path struct {
		name  string
		lines []wire.Line
		err   error
	}
	var paths []path

	g, err := gesmc.FromDegrees(degrees)
	if err != nil {
		return err
	}
	s, err := gesmc.NewSampler(g, gesmc.WithSeed(r.seed))
	if err != nil {
		return err
	}
	smps, err := s.Collect(ctx, samples)
	s.Close()
	var local []wire.Line
	for _, smp := range smps {
		local = append(local, sampleLine(smp))
	}
	paths = append(paths, path{"sampler", local, err})

	d, err := startDaemon(service.Config{})
	if err != nil {
		return err
	}
	defer d.close()
	client := newClient()
	defer client.CloseIdleConnections()
	lines, _, err := httpLines(ctx, client, d.url, &req)
	paths = append(paths, path{"daemon", lines, err})

	rg, err := startRig(ctx, 1, service.Config{})
	if err != nil {
		return err
	}
	defer rg.close()
	lines, err = coordLines(ctx, rg.coord, &req)
	paths = append(paths, path{"coordinator", lines, err})

	e := undirected(degrees, "mcmc")
	var v verifier
	same := true
	for _, p := range paths {
		if p.err != nil {
			r.fail(fmt.Errorf("cross-path %s: %w", p.name, p.err))
		}
		t := tally{expected: samples}
		for i := range p.lines {
			t.line(r, &v, e, &p.lines[i], i)
		}
		r.count(t)
		same = same && p.err == nil && digest(p.lines) == digest(paths[0].lines)
	}
	check := tally{expected: 1, lines: 1}
	if same {
		check.verified = 1
	} else {
		r.fail(fmt.Errorf("cross-path digests differ between sampler, daemon and coordinator"))
	}
	r.count(check)
	return nil
}
