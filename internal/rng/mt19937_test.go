package rng

import "testing"

// Reference output of the canonical mt19937-64 implementation seeded with
// init_by_array64({0x12345, 0x23456, 0x34567, 0x45678}) — the published
// test vector of Matsumoto & Nishimura (mt19937-64.out.txt).
var mtArrayRef = []uint64{
	7266447313870364031, 4946485549665804864, 16945909448695747420,
	16394063075524226720, 4873882236456199058, 14877448043947020171,
	6740343660852211943, 13857871200353263164, 5249110015610582907,
	10205081126064480383,
}

// Reference output for the single seed 5489 (the libstdc++ / reference
// default seed).
var mtSeedRef = []uint64{
	14514284786278117030, 4620546740167642908, 13109570281517897720,
	17462938647148434322, 355488278567739596, 7469126240319926998,
	4635995468481642529, 418970542659199878, 9604170989252516556,
	6358044926049913402,
}

func TestMT19937SeedBySliceReference(t *testing.T) {
	mt := &MT19937{}
	mt.SeedBySlice([]uint64{0x12345, 0x23456, 0x34567, 0x45678})
	for i, want := range mtArrayRef {
		if got := mt.Uint64(); got != want {
			t.Fatalf("output %d: got %d, want %d", i, got, want)
		}
	}
}

func TestMT19937SeedReference(t *testing.T) {
	mt := NewMT19937(5489)
	for i, want := range mtSeedRef {
		if got := mt.Uint64(); got != want {
			t.Fatalf("output %d: got %d, want %d", i, got, want)
		}
	}
}

func TestMT19937Reseed(t *testing.T) {
	mt := NewMT19937(12345)
	a := make([]uint64, 100)
	for i := range a {
		a[i] = mt.Uint64()
	}
	mt.Seed(12345)
	for i := range a {
		if got := mt.Uint64(); got != a[i] {
			t.Fatalf("re-seeded stream diverges at %d", i)
		}
	}
}

func TestSplitMix64Known(t *testing.T) {
	// Reference values for splitmix64 with seed 1234567.
	s := NewSplitMix64(1234567)
	want := []uint64{6457827717110365317, 3203168211198807973, 9817491932198370423}
	for i, w := range want {
		if got := s.Uint64(); got != w {
			t.Fatalf("splitmix output %d: got %d, want %d", i, got, w)
		}
	}
}

func TestSplitIndependence(t *testing.T) {
	s := NewSplitMix64(42)
	a := s.Split()
	b := s.Split()
	if a.Uint64() == b.Uint64() {
		t.Fatal("split streams start identically")
	}
}

func TestPerWorkerSeedsDeterministic(t *testing.T) {
	a := PerWorkerSeeds(99, 8)
	b := PerWorkerSeeds(99, 8)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("seed %d differs between identical calls", i)
		}
	}
	seen := map[uint64]bool{}
	for _, s := range a {
		if seen[s] {
			t.Fatalf("duplicate worker seed %d", s)
		}
		seen[s] = true
	}
}

// SeedBySlice resets the state from a seed array using the reference
// init_by_array64 routine.
func (mt *MT19937) SeedBySlice(key []uint64) {
	mt.Seed(19650218)
	i, j := 1, 0
	k := len(key)
	if mtN > k {
		k = mtN
	}
	for ; k > 0; k-- {
		mt.state[i] = (mt.state[i] ^ ((mt.state[i-1] ^ (mt.state[i-1] >> 62)) * 3935559000370003845)) + key[j] + uint64(j)
		i++
		j++
		if i >= mtN {
			mt.state[0] = mt.state[mtN-1]
			i = 1
		}
		if j >= len(key) {
			j = 0
		}
	}
	for k = mtN - 1; k > 0; k-- {
		mt.state[i] = (mt.state[i] ^ ((mt.state[i-1] ^ (mt.state[i-1] >> 62)) * 2862933555777941757)) - uint64(i)
		i++
		if i >= mtN {
			mt.state[0] = mt.state[mtN-1]
			i = 1
		}
	}
	mt.state[0] = 1 << 63
	mt.index = mtN
}
