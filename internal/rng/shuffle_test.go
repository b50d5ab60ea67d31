package rng

import (
	"testing"
)

func isPermutation(p []uint32) bool {
	seen := make([]bool, len(p))
	for _, v := range p {
		if int(v) >= len(p) || seen[v] {
			return false
		}
		seen[v] = true
	}
	return true
}

func TestPermIsPermutation(t *testing.T) {
	src := NewMT19937(1)
	for _, n := range []int{0, 1, 2, 3, 17, 1000} {
		if p := Perm(src, n); !isPermutation(p) {
			t.Fatalf("Perm(%d) not a permutation", n)
		}
	}
}

// permIndex maps a permutation of [0,4) to a number in [0,24).
func permIndex(p []uint32) int {
	idx := 0
	fact := []int{6, 2, 1, 1}
	for i := 0; i < 4; i++ {
		smaller := 0
		for j := i + 1; j < 4; j++ {
			if p[j] < p[i] {
				smaller++
			}
		}
		idx += smaller * fact[i]
	}
	return idx
}

// TestPermIntoMatchesPerm: a reused, dirty buffer receives exactly the
// permutation Perm draws from the same stream state.
func TestPermIntoMatchesPerm(t *testing.T) {
	a, b := NewMT19937(5), NewMT19937(5)
	buf := make([]uint32, 64)
	for _, n := range []int{0, 1, 2, 7, 64, 33} {
		for i := range buf {
			buf[i] = 0xDEADBEEF
		}
		want := Perm(a, n)
		PermInto(b, buf[:n])
		for i := range want {
			if buf[i] != want[i] {
				t.Fatalf("n=%d: PermInto diverges from Perm at %d", n, i)
			}
		}
	}
}

func TestPermUniform(t *testing.T) {
	src := NewMT19937(2024)
	counts := make([]int, 24)
	const samples = 240000
	for i := 0; i < samples; i++ {
		counts[permIndex(Perm(src, 4))]++
	}
	// df = 23; threshold ~ 65 gives p < 1e-5.
	if x2 := chiSquare(counts, samples); x2 > 65 {
		t.Fatalf("Perm(4) chi-square too large: %.1f", x2)
	}
}

func TestShufflePreservesElements(t *testing.T) {
	src := NewMT19937(3)
	p := make([]uint32, 100)
	for i := range p {
		p[i] = uint32(i * 3)
	}
	q := make([]uint32, len(p))
	copy(q, p)
	Shuffle(src, q)
	sum := func(s []uint32) (t uint64) {
		for _, v := range s {
			t += uint64(v)
		}
		return
	}
	if sum(p) != sum(q) {
		t.Fatal("Shuffle changed the multiset of elements")
	}
}

func TestParallelPermIsPermutation(t *testing.T) {
	for _, n := range []int{0, 1, 100, 1 << 12, 1<<14 + 13} {
		if p := parallelPerm(12345, n); !isPermutation(p) {
			t.Fatalf("parallelPerm(n=%d) not a permutation", n)
		}
	}
}

func TestParallelPermDeterministic(t *testing.T) {
	a := parallelPerm(777, 1<<14)
	b := parallelPerm(777, 1<<14)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("parallelPerm not deterministic at index %d", i)
		}
	}
}

func TestParallelPermUniformPositions(t *testing.T) {
	// Marginal test: element 0 should land in every quarter of the
	// output equally often. Cheaper than a full permutation test but
	// catches bucket-concatenation bias, the realistic failure mode.
	const n = 1 << 13
	const samples = 2000
	counts := make([]int, 4)
	for s := 0; s < samples; s++ {
		p := parallelPerm(uint64(s)*2654435761+1, n)
		for pos, v := range p {
			if v == 0 {
				counts[pos*4/n]++
				break
			}
		}
	}
	if x2 := chiSquare(counts, samples); x2 > 22 { // df=3, p<1e-4
		t.Fatalf("element-0 position chi-square too large: %.1f (counts %v)", x2, counts)
	}
}

func TestAliasMatchesWeights(t *testing.T) {
	weights := []float64{1, 2, 3, 4, 0, 10}
	a := NewAlias(weights)
	src := NewMT19937(55)
	const samples = 200000
	counts := make([]int, len(weights))
	for i := 0; i < samples; i++ {
		counts[a.Sample(src)]++
	}
	var total float64
	for _, w := range weights {
		total += w
	}
	for i, w := range weights {
		want := float64(samples) * w / total
		got := float64(counts[i])
		if w == 0 {
			if got != 0 {
				t.Fatalf("zero-weight index %d sampled %d times", i, counts[i])
			}
			continue
		}
		se := 4 * sqrtF(want)
		if got < want-se-50 || got > want+se+50 {
			t.Fatalf("index %d: got %d draws, want about %.0f", i, counts[i], want)
		}
	}
}

func sqrtF(x float64) float64 {
	// Tiny wrapper to avoid importing math solely for the test above.
	if x <= 0 {
		return 0
	}
	z := x
	for i := 0; i < 30; i++ {
		z = 0.5 * (z + x/z)
	}
	return z
}

func BenchmarkMT19937(b *testing.B) {
	src := NewMT19937(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += src.Uint64()
	}
	_ = sink
}

func BenchmarkSplitMix64(b *testing.B) {
	src := NewSplitMix64(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += src.Uint64()
	}
	_ = sink
}

func BenchmarkUintN(b *testing.B) {
	src := NewSplitMix64(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += UintN(src, 1000003)
	}
	_ = sink
}

func BenchmarkPermSequential(b *testing.B) {
	src := NewMT19937(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = Perm(src, 1<<16)
	}
}

func BenchmarkPermParallel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = parallelPerm(uint64(i), 1<<16)
	}
}
