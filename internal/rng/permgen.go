package rng

// PermGen permutes lists of a fixed length by uniform random
// permutations, out of place and with persistent scratch, so the
// per-superstep shuffle of the global edge-switching kernel costs zero
// steady-state heap allocations (the original per-call scatter-shuffle
// allocated its bucket grid, its goroutines, and the output slice on
// every superstep — the measured w>1 allocation regression). It moves
// the values themselves: Permute writes dst[j] = src[π(j)], so the
// kernel shuffles its edge list physically and pairs adjacent slots,
// and a caller that needs π itself permutes the identity list.
//
// The scheme is a counting variant of the Rao-Sandelius scatter
// shuffle: every element draws an independent uniform bucket, a
// counting pass sizes the buckets, a scatter pass places each element
// at its exact final slot, and each bucket is finished with a
// Fisher-Yates shuffle. Summing over bucket-size compositions shows
// the concatenation of independently shuffled uniform-scatter buckets
// is an exactly uniform permutation.
//
// Determinism: the element space is cut into permRanges fixed ranges —
// a partition of [0, n) that does NOT depend on the worker count — and
// every range (and every bucket shuffle) uses its own seed-derived
// SplitMix64 stream. π is therefore a pure function of (seed, n): the
// same permutation for every parallelism degree, every dispatch
// interleaving, and every element type T. This is what lets the
// kernels stay bit-identical across worker counts at all graph sizes.
type PermGen[T any] struct {
	n        int
	nBuckets int
	seed     uint64

	bucketOf []uint16 // per-element bucket draw (classify -> scatter)
	counts   []uint32 // permRanges x nBuckets occupancy matrix
	cursor   []uint32 // write cursors, prefix-summed from counts
	src, dst []T      // the lists of the running Permute call

	classifyFn func(worker, lo, hi int)
	scatterFn  func(worker, lo, hi int)
	shuffleFn  func(worker, lo, hi int)
}

// Dispatch runs fn over a partition of [0, n) on some worker gang; a
// nil Dispatch means serial execution. conc.(*Pool).Blocks satisfies
// this signature, so engines pass a stored method value of their
// persistent pool (rng cannot import conc — conc depends on rng).
// Correctness and output do not depend on how the dispatch partitions:
// any tiling of [0, n) yields the same permutation.
type Dispatch func(n int, fn func(worker, lo, hi int))

// permRanges is the fixed number of classification/scatter ranges.
// It bounds the usable parallelism of a Permute call and is chosen
// comfortably above any sane worker count while keeping the counting
// matrix small (permRanges x maxPermBuckets x 4 bytes = 1 MiB).
const permRanges = 64

// Bucket sizing: power-of-two bucket count targeting ~16Ki elements
// (64 KiB) per bucket so every bucket shuffle is cache-resident,
// clamped to [minPermBuckets, maxPermBuckets] and to at least 16
// elements per bucket.
const (
	permBucketTarget = 1 << 14
	minPermBuckets   = 64
	maxPermBuckets   = 4096
)

// permGenCutoff is the size below which the scatter machinery is pure
// overhead and a sequential in-place Fisher-Yates is used instead.
const permGenCutoff = 1 << 12

func permBuckets(n int) int {
	b := minPermBuckets
	for b < maxPermBuckets && n/b > permBucketTarget {
		b <<= 1
	}
	for b > 1 && b*16 > n {
		b >>= 1
	}
	return b
}

// NewPermGen returns a permuter of lists of length n. All scratch is
// sized once here; Permute allocates nothing.
func NewPermGen[T any](n int) *PermGen[T] {
	if n < 0 || int64(n) > int64(^uint32(0)) {
		panic("rng: PermGen size out of range")
	}
	g := &PermGen[T]{n: n}
	if n >= permGenCutoff {
		g.nBuckets = permBuckets(n)
		g.bucketOf = make([]uint16, n)
		g.counts = make([]uint32, permRanges*g.nBuckets)
		g.cursor = make([]uint32, permRanges*g.nBuckets)
	}
	g.classifyFn = g.classify
	g.scatterFn = g.scatter
	g.shuffleFn = g.shuffle
	return g
}

// N returns the permutation size the generator was built for.
func (g *PermGen[T]) N() int { return g.n }

// rangeBounds returns element range r of the fixed partition.
func (g *PermGen[T]) rangeBounds(r int) (int, int) {
	return g.n * r / permRanges, g.n * (r + 1) / permRanges
}

// rangeSeed derives the classification stream of range r; bucketSeed
// the shuffle stream of bucket b. The two domains are separated so no
// stream is reused across phases.
func (g *PermGen[T]) rangeSeed(r int) uint64 {
	return Mix64(g.seed + uint64(r)*0x9E3779B97F4A7C15)
}

func (g *PermGen[T]) bucketSeed(b int) uint64 {
	return Mix64((g.seed ^ 0xA3EC647659359ACD) + uint64(b)*0x9E3779B97F4A7C15)
}

// classify draws the bucket of every element in ranges [lo, hi) and
// counts per-(range, bucket) occupancy. Ranges are independent: no
// synchronization, no worker-dependent state.
func (g *PermGen[T]) classify(_, lo, hi int) {
	mask := uint64(g.nBuckets - 1)
	for r := lo; r < hi; r++ {
		src := SplitMix64{state: g.rangeSeed(r)}
		counts := g.counts[r*g.nBuckets : (r+1)*g.nBuckets : (r+1)*g.nBuckets]
		elo, ehi := g.rangeBounds(r)
		for i := elo; i < ehi; i++ {
			b := uint16(src.Uint64() & mask)
			g.bucketOf[i] = b
			counts[b]++
		}
	}
}

// scatter copies every element of ranges [lo, hi) to its final slot
// of dst using the prefix-summed cursors. Each (range, bucket) cell owns a
// disjoint slot interval, so writes are race-free and positions are
// exactly those of a sequential scatter (bucket-major, range-minor,
// in-range order preserved).
func (g *PermGen[T]) scatter(_, lo, hi int) {
	nb := g.nBuckets
	for r := lo; r < hi; r++ {
		cursor := g.cursor[r*nb : (r+1)*nb : (r+1)*nb]
		elo, ehi := g.rangeBounds(r)
		for i := elo; i < ehi; i++ {
			b := g.bucketOf[i]
			g.dst[cursor[b]] = g.src[i]
			cursor[b]++
		}
	}
}

// shuffle Fisher-Yates-shuffles buckets [lo, hi) in place. After the
// scatter, cursor[lastRange*nb + b] is bucket b's end offset.
func (g *PermGen[T]) shuffle(_, lo, hi int) {
	base := (permRanges - 1) * g.nBuckets
	for b := lo; b < hi; b++ {
		end := int(g.cursor[base+b])
		start := 0
		if b > 0 {
			start = int(g.cursor[base+b-1])
		}
		src := SplitMix64{state: g.bucketSeed(b)}
		p := g.dst[start:end]
		for i := len(p) - 1; i > 0; i-- {
			j := src.IntN(i + 1)
			p[i], p[j] = p[j], p[i]
		}
	}
}

// Permute writes dst[j] = src[π(j)] for the uniform permutation π of
// [0, n) that seed alone determines. src and dst must both have length
// n and must not overlap. dispatch distributes the three internal
// passes (classify, scatter, shuffle) over a worker gang; nil runs
// them serially.
func (g *PermGen[T]) Permute(seed uint64, src, dst []T, dispatch Dispatch) {
	n := g.n
	if len(src) != n || len(dst) != n {
		panic("rng: PermGen list length mismatch")
	}
	if n < permGenCutoff {
		// Inside-out Fisher-Yates: the draws of Perm(NewSplitMix64(seed),
		// n), placing src[i] where Perm places the label i.
		rs := SplitMix64{state: seed}
		if n > 0 {
			dst[0] = src[0]
		}
		for i := 1; i < n; i++ {
			j := rs.IntN(i + 1)
			dst[i] = dst[j]
			dst[j] = src[i]
		}
		return
	}
	g.seed = seed
	g.src, g.dst = src, dst
	clear(g.counts)
	if dispatch == nil {
		g.classify(0, 0, permRanges)
	} else {
		dispatch(permRanges, g.classifyFn)
	}
	// Serial prefix sum over the (range, bucket) occupancy matrix in
	// bucket-major, range-minor order: cursor cells become start
	// offsets. permRanges*nBuckets is at most 256Ki cells — noise next
	// to the element passes.
	nb := g.nBuckets
	var running uint32
	for b := 0; b < nb; b++ {
		for r := 0; r < permRanges; r++ {
			g.cursor[r*nb+b] = running
			running += g.counts[r*nb+b]
		}
	}
	if dispatch == nil {
		g.scatter(0, 0, permRanges)
		g.shuffle(0, 0, nb)
	} else {
		dispatch(permRanges, g.scatterFn)
		dispatch(nb, g.shuffleFn)
	}
	g.src, g.dst = nil, nil
}
