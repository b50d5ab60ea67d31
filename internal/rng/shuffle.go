package rng

// Perm returns a uniform random permutation of [0, n) as uint32 values,
// generated by the inside-out Fisher-Yates shuffle. n must fit in uint32;
// the paper's implementation has the same bound (§5.2: n ≤ 2^28 nodes).
func Perm(src Source, n int) []uint32 {
	if n < 0 || int64(n) > int64(^uint32(0)) {
		panic("rng: Perm size out of range")
	}
	p := make([]uint32, n)
	PermInto(src, p)
	return p
}

// PermInto overwrites p with a uniform random permutation of
// [0, len(p)), making exactly the draws of Perm(src, len(p)), so
// per-superstep callers reuse one buffer. len(p) must fit in uint32.
func PermInto(src Source, p []uint32) {
	n := len(p)
	if int64(n) > int64(^uint32(0)) {
		panic("rng: Perm size out of range")
	}
	if n == 0 {
		return
	}
	p[0] = 0
	for i := 1; i < n; i++ {
		j := IntN(src, i+1)
		p[i] = p[j]
		p[j] = uint32(i)
	}
}

// Shuffle uniformly permutes p in place with Fisher-Yates.
func Shuffle(src Source, p []uint32) {
	for i := len(p) - 1; i > 0; i-- {
		j := IntN(src, i+1)
		p[i], p[j] = p[j], p[i]
	}
}
