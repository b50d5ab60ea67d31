package main

import (
	"context"
	"fmt"
	"time"

	"gesmc"
)

// ensembleCmp is an extension experiment beyond the paper's figures: it
// measures the sample throughput of the null-model workload (draw many
// thinned samples with one degree sequence) through the two public
// paths — k one-shot Samplers, each compiling the engine state afresh
// and paying a full burn-in before it is closed, versus one reused Sampler
// streaming an Ensemble. This is the workload the Sampler API is shaped
// for; the reused engine amortizes exactly the §5 data-structure setup.
func ensembleCmp(opt options) error {
	n := int(float64(1<<14) * opt.scale)
	samples := 32
	if opt.quick {
		n = 1 << 10
		samples = 4
	}
	const (
		burnIn = 20
		thin   = 4
	)
	base, err := gesmc.GeneratePowerLaw(n, 2.2, opt.seed)
	if err != nil {
		return err
	}
	fmt.Printf("workload: n=%d m=%d, %d samples, burn-in %d supersteps, thinning %d\n\n",
		base.N(), base.M(), samples, burnIn, thin)

	oneShot := func() (time.Duration, error) {
		start := time.Now()
		for i := 0; i < samples; i++ {
			s, err := gesmc.NewSampler(base.Clone(),
				gesmc.WithAlgorithm(gesmc.ParGlobalES),
				gesmc.WithWorkers(opt.workers),
				gesmc.WithSeed(opt.seed+uint64(i)),
				gesmc.WithBurnIn(burnIn))
			if err != nil {
				return 0, err
			}
			_, err = s.Sample()
			s.Close()
			if err != nil {
				return 0, err
			}
		}
		return time.Since(start), nil
	}
	reused := func(thinning int) (time.Duration, error) {
		start := time.Now()
		s, err := gesmc.NewSampler(base.Clone(),
			gesmc.WithAlgorithm(gesmc.ParGlobalES),
			gesmc.WithWorkers(opt.workers),
			gesmc.WithSeed(opt.seed),
			gesmc.WithBurnIn(burnIn),
			gesmc.WithThinning(thinning))
		if err != nil {
			return 0, err
		}
		defer s.Close()
		for smp := range s.Ensemble(context.Background(), samples) {
			if smp.Err != nil {
				return 0, smp.Err
			}
		}
		return time.Since(start), nil
	}

	tOne, err := oneShot()
	if err != nil {
		return err
	}
	tReused, err := reused(burnIn)
	if err != nil {
		return err
	}
	tThinned, err := reused(thin)
	if err != nil {
		return err
	}

	rate := func(d time.Duration) float64 {
		return float64(samples) / d.Seconds()
	}
	fmt.Printf("%-34s %12s %14s\n", "path", "total", "samples/s")
	fmt.Printf("%-34s %12v %14.2f\n", "one-shot Sampler x k", tOne.Round(time.Millisecond), rate(tOne))
	fmt.Printf("%-34s %12v %14.2f\n", "reused Sampler (thinning=burn-in)", tReused.Round(time.Millisecond), rate(tReused))
	fmt.Printf("%-34s %12v %14.2f\n", fmt.Sprintf("reused Sampler (thinning=%d)", thin), tThinned.Round(time.Millisecond), rate(tThinned))
	fmt.Printf("\nspeed-up from engine reuse alone: %.2fx; with mixing-informed thinning: %.2fx\n",
		tOne.Seconds()/tReused.Seconds(), tOne.Seconds()/tThinned.Seconds())
	return nil
}
