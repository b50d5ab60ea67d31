package main

import (
	"os"
	"testing"
)

// Smoke tests: every experiment driver must run to completion on tiny
// parameters. The figures' numeric content is validated by the package
// tests (mixing behaviour, round bounds, equivalences); here we guard
// the drivers themselves against rot.
func quickOptions() options {
	return options{scale: 0.1, seed: 7, workers: 2, quick: true}
}

func TestFig2Driver(t *testing.T) {
	if err := fig2(quickOptions()); err != nil {
		t.Fatal(err)
	}
}

func TestFig3Driver(t *testing.T) {
	if testing.Short() {
		t.Skip("slow driver")
	}
	if err := fig3(quickOptions()); err != nil {
		t.Fatal(err)
	}
}

func TestCurveballDriver(t *testing.T) {
	if err := curveballCmp(quickOptions()); err != nil {
		t.Fatal(err)
	}
}

func TestTable4Driver(t *testing.T) {
	if testing.Short() {
		t.Skip("slow driver")
	}
	if err := table4(quickOptions()); err != nil {
		t.Fatal(err)
	}
}

func TestFig5Driver(t *testing.T) {
	if testing.Short() {
		t.Skip("slow driver")
	}
	opt := quickOptions()
	opt.scale = 0.05
	if err := fig5(opt); err != nil {
		t.Fatal(err)
	}
}

func TestFig6Driver(t *testing.T) {
	if err := fig6(quickOptions()); err != nil {
		t.Fatal(err)
	}
}

func TestFig7Driver(t *testing.T) {
	if err := fig7(quickOptions()); err != nil {
		t.Fatal(err)
	}
}

func TestFig8Driver(t *testing.T) {
	if err := fig8(quickOptions()); err != nil {
		t.Fatal(err)
	}
}

func TestFig9Driver(t *testing.T) {
	if err := fig9(quickOptions()); err != nil {
		t.Fatal(err)
	}
}

func TestEnsembleDriver(t *testing.T) {
	if err := ensembleCmp(quickOptions()); err != nil {
		t.Fatal(err)
	}
}

func TestBenchDriver(t *testing.T) {
	benchOut = t.TempDir() + "/bench.json"
	defer func() { benchOut = "" }()
	if err := bench(quickOptions()); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(benchOut); err != nil {
		t.Fatalf("bench JSON not written: %v", err)
	}
}

func TestFmtHelpers(t *testing.T) {
	if s := fmtThin(0); s != ">max" {
		t.Fatalf("fmtThin(0) = %q", s)
	}
	if s := fmtThin(6); s != "6" {
		t.Fatalf("fmtThin(6) = %q", s)
	}
}
