package rng

import (
	"testing"
)

// fakeDispatch tiles [0, n) into odd-sized chunks handed to fn with
// rotating worker ids — an adversarial partitioning no real pool would
// produce, to prove the output is partition-independent.
func fakeDispatch(n int, fn func(worker, lo, hi int)) {
	step := 7
	w := 0
	for lo := 0; lo < n; {
		hi := lo + step
		if hi > n {
			hi = n
		}
		fn(w%3, lo, hi)
		lo = hi
		w++
		step++
	}
}

func TestPermGenIsPermutation(t *testing.T) {
	for _, n := range []int{0, 1, 2, 100, 1 << 12, 1<<14 + 7, 1 << 16} {
		g := NewPermGen(n)
		p := g.Generate(42, nil)
		if len(p) != n || !isPermutation(p) {
			t.Fatalf("PermGen(n=%d) not a permutation", n)
		}
	}
}

func TestPermGenDispatchIndependent(t *testing.T) {
	for _, n := range []int{1 << 12, 1<<15 + 13, 1 << 17} {
		serial := append([]uint32(nil), NewPermGen(n).Generate(99, nil)...)
		tiled := NewPermGen(n).Generate(99, fakeDispatch)
		for i := range serial {
			if serial[i] != tiled[i] {
				t.Fatalf("n=%d: dispatch-dependent output at index %d", n, i)
			}
		}
	}
}

func TestPermGenMatchesParallelPerm(t *testing.T) {
	for _, n := range []int{100, 1 << 13} {
		a := ParallelPerm(7, n)
		b := NewPermGen(n).Generate(7, nil)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("n=%d: ParallelPerm disagrees with PermGen at %d", n, i)
			}
		}
	}
}

func TestPermGenReuseSmall(t *testing.T) {
	// The sub-cutoff path runs inside-out Fisher-Yates in the reused
	// buffer; regression guard for the implicit p[0] = 0 start state.
	g := NewPermGen(100)
	g.Generate(1, nil)
	if p := g.Generate(2, nil); !isPermutation(p) {
		t.Fatal("small-n reuse produced a non-permutation")
	}
}

func TestPermGenReuseAndDistinctSeeds(t *testing.T) {
	g := NewPermGen(1 << 13)
	a := append([]uint32(nil), g.Generate(1, nil)...)
	b := append([]uint32(nil), g.Generate(2, nil)...)
	if !isPermutation(a) || !isPermutation(b) {
		t.Fatal("reused generator produced a non-permutation")
	}
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical permutations")
	}
	c := g.Generate(1, nil)
	for i := range a {
		if a[i] != c[i] {
			t.Fatal("same seed not reproducible after reuse")
		}
	}
}

// TestPermGenZeroAllocs is the point of the type: steady-state
// Generate calls must not touch the heap, with or without a dispatch.
func TestPermGenZeroAllocs(t *testing.T) {
	for _, n := range []int{1 << 10, 1 << 14} {
		g := NewPermGen(n)
		g.Generate(0, fakeDispatch)
		seed := uint64(1)
		allocs := testing.AllocsPerRun(10, func() {
			g.Generate(seed, fakeDispatch)
			seed++
		})
		if allocs != 0 {
			t.Fatalf("n=%d: Generate allocates %.1f per call, want 0", n, allocs)
		}
	}
}

// Bucket-position uniformity: element 0 should land anywhere in the
// output with roughly equal frequency across seeds (coarse chi-square
// guard against a mis-seeded scatter or shuffle stream).
func TestPermGenUniformPositions(t *testing.T) {
	const n = 1 << 13
	const trials = 400
	const cells = 8
	var hist [cells]int
	g := NewPermGen(n)
	for s := 0; s < trials; s++ {
		p := g.Generate(uint64(s)*2654435761+17, nil)
		for i, v := range p {
			if v == 0 {
				hist[i*cells/n]++
				break
			}
		}
	}
	expect := float64(trials) / cells
	chi2 := 0.0
	for _, h := range hist {
		d := float64(h) - expect
		chi2 += d * d / expect
	}
	// 7 dof; 24.3 is the 0.001 quantile.
	if chi2 > 24.3 {
		t.Fatalf("position histogram chi2=%.1f (hist=%v)", chi2, hist)
	}
}
