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

// identity returns the list 0, 1, ..., n−1.
func identity(n int) []uint32 {
	p := make([]uint32, n)
	for i := range p {
		p[i] = uint32(i)
	}
	return p
}

// generate returns the permutation π of g for seed: the identity list
// permuted, since Permute writes dst[j] = src[π(j)].
func generate(g *PermGen[uint32], seed uint64, dispatch Dispatch) []uint32 {
	p := make([]uint32, g.N())
	g.Permute(seed, identity(g.N()), p, dispatch)
	return p
}

// parallelPerm is the one-shot π of a fresh generator for (seed, n).
func parallelPerm(seed uint64, n int) []uint32 {
	return generate(NewPermGen[uint32](n), seed, nil)
}

func TestPermGenIsPermutation(t *testing.T) {
	for _, n := range []int{0, 1, 2, 100, 1 << 12, 1<<14 + 7, 1 << 16} {
		g := NewPermGen[uint32](n)
		p := generate(g, 42, nil)
		if len(p) != n || !isPermutation(p) {
			t.Fatalf("PermGen(n=%d) not a permutation", n)
		}
	}
}

func TestPermGenDispatchIndependent(t *testing.T) {
	for _, n := range []int{1 << 12, 1<<15 + 13, 1 << 17} {
		serial := generate(NewPermGen[uint32](n), 99, nil)
		tiled := generate(NewPermGen[uint32](n), 99, fakeDispatch)
		for i := range serial {
			if serial[i] != tiled[i] {
				t.Fatalf("n=%d: dispatch-dependent output at index %d", n, i)
			}
		}
	}
}

// TestPermGenMatchesParallelPerm pins π for seed 7, below and above
// the scatter cutoff, to the permutations the index-only generator
// (ParallelPerm) drew before PermGen moved values: permuting values
// changed no draw. Below the cutoff π is also Perm's inside-out
// Fisher-Yates over the seed's SplitMix64 stream.
func TestPermGenMatchesParallelPerm(t *testing.T) {
	for _, c := range []struct {
		n    int
		want uint64
	}{{100, 0x7d146de07f133103}, {1 << 13, 0x5e7e9b1f9c9531f4}} {
		p := parallelPerm(7, c.n)
		h := uint64(0)
		for _, v := range p {
			h = Mix64(h ^ uint64(v))
		}
		if h != c.want {
			t.Errorf("n=%d: π fingerprint %#x, want %#x", c.n, h, c.want)
		}
	}
	want := Perm(NewSplitMix64(7), 100)
	for i, v := range parallelPerm(7, 100) {
		if v != want[i] {
			t.Fatalf("n=100: π disagrees with Perm at %d", i)
		}
	}
}

// TestPermGenPermutesValues pins the contract the kernel relies on:
// for one seed, permuting any list of values moves src[π(j)] to slot
// j, where π is the identity list's permutation — below and above the
// scatter cutoff, for 64-bit values, with and without a dispatch.
func TestPermGenPermutesValues(t *testing.T) {
	for _, n := range []int{2, 100, 1 << 12, 1<<14 + 7} {
		for _, dispatch := range []Dispatch{nil, fakeDispatch} {
			pi := generate(NewPermGen[uint32](n), 31, nil)
			src := make([]uint64, n)
			for i := range src {
				src[i] = Mix64(uint64(i)) // distinct values, far from the labels
			}
			dst := make([]uint64, n)
			NewPermGen[uint64](n).Permute(31, src, dst, dispatch)
			for j := range dst {
				if dst[j] != src[pi[j]] {
					t.Fatalf("n=%d: dst[%d] = %#x, want src[π(%d) = %d]", n, j, dst[j], j, pi[j])
				}
			}
		}
	}
}

func TestPermGenReuseSmall(t *testing.T) {
	// The sub-cutoff path runs inside-out Fisher-Yates into a reused
	// output list; regression guard for its start state, dst[0] = src[0].
	g := NewPermGen[uint32](100)
	src, dst := identity(100), make([]uint32, 100)
	g.Permute(1, src, dst, nil)
	g.Permute(2, src, dst, nil)
	if !isPermutation(dst) {
		t.Fatal("small-n reuse produced a non-permutation")
	}
}

func TestPermGenReuseAndDistinctSeeds(t *testing.T) {
	g := NewPermGen[uint32](1 << 13)
	a := generate(g, 1, nil)
	b := generate(g, 2, nil)
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
	c := generate(g, 1, nil)
	for i := range a {
		if a[i] != c[i] {
			t.Fatal("same seed not reproducible after reuse")
		}
	}
}

// TestPermGenZeroAllocs is the point of the type: steady-state
// Permute calls must not touch the heap, with or without a dispatch.
func TestPermGenZeroAllocs(t *testing.T) {
	for _, n := range []int{1 << 10, 1 << 14} {
		g := NewPermGen[uint64](n)
		src, dst := make([]uint64, n), make([]uint64, n)
		g.Permute(0, src, dst, fakeDispatch)
		seed := uint64(1)
		allocs := testing.AllocsPerRun(10, func() {
			g.Permute(seed, src, dst, fakeDispatch)
			src, dst = dst, src
			seed++
		})
		if allocs != 0 {
			t.Fatalf("n=%d: Permute allocates %.1f per call, want 0", n, allocs)
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
	g := NewPermGen[uint32](n)
	for s := 0; s < trials; s++ {
		p := generate(g, uint64(s)*2654435761+17, nil)
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
