// Package rng provides the pseudo-random machinery used throughout the
// repository: the MT19937-64 Mersenne Twister (the generator used by the
// paper's C++ implementation via libstdc++), SplitMix64 for cheap seeding
// and stream splitting, Lemire's unbiased bounded-integer method, exact
// binomial sampling, uniform random permutations (sequential Fisher-Yates
// and a parallel Rao-Sandelius scatter shuffle), and Vose alias tables for
// arbitrary discrete distributions.
//
// All generators implement Source, a minimal interface producing uniform
// 64-bit words. None of them are safe for concurrent use; parallel code
// derives one independent stream per worker via Split.
package rng

// Source produces uniformly distributed 64-bit words. Implementations are
// not safe for concurrent use.
type Source interface {
	// Uint64 returns the next pseudo-random 64-bit word.
	Uint64() uint64
}

const (
	mtN         = 312
	mtM         = 156
	mtMatrixA   = 0xB5026F5AA96619E9
	mtUpperMask = 0xFFFFFFFF80000000
	mtLowerMask = 0x7FFFFFFF
)

// MT19937 is the 64-bit Mersenne Twister of Matsumoto and Nishimura
// (MT19937-64). It matches the reference implementation bit for bit and
// therefore also libstdc++'s std::mt19937_64, the generator used by the
// paper's implementation.
type MT19937 struct {
	state [mtN]uint64
	index int
}

// NewMT19937 returns a generator seeded with seed using the reference
// initialization routine.
func NewMT19937(seed uint64) *MT19937 {
	mt := &MT19937{}
	mt.Seed(seed)
	return mt
}

// Seed resets the generator state from a single 64-bit seed.
func (mt *MT19937) Seed(seed uint64) {
	mt.state[0] = seed
	for i := 1; i < mtN; i++ {
		mt.state[i] = 6364136223846793005*(mt.state[i-1]^(mt.state[i-1]>>62)) + uint64(i)
	}
	mt.index = mtN
}

func (mt *MT19937) generate() {
	for i := 0; i < mtN; i++ {
		x := (mt.state[i] & mtUpperMask) | (mt.state[(i+1)%mtN] & mtLowerMask)
		xa := x >> 1
		if x&1 != 0 {
			xa ^= mtMatrixA
		}
		mt.state[i] = mt.state[(i+mtM)%mtN] ^ xa
	}
	mt.index = 0
}

// Uint64 returns the next pseudo-random 64-bit word.
func (mt *MT19937) Uint64() uint64 {
	if mt.index >= mtN {
		mt.generate()
	}
	x := mt.state[mt.index]
	mt.index++
	x ^= (x >> 29) & 0x5555555555555555
	x ^= (x << 17) & 0x71D67FFFEDA60000
	x ^= (x << 37) & 0xFFF7EEE000000000
	x ^= x >> 43
	return x
}
