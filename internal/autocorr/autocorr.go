// Package autocorr implements the empirical mixing-time methodology of
// §6.1 of the paper (after Ray, Pinar & Seshadhri): track, for every
// edge of interest, the binary time series of its existence across
// Markov chain supersteps; thin the series by k; and decide per edge
// whether the thinned series looks like independent draws or still like
// a first-order Markov chain, using the G²-statistic with a BIC penalty.
// The reported quantity is the fraction of non-independent edges as a
// function of the thinning value k.
//
// As in the paper, the collector aggregates transition counts on the fly
// for a fixed set of thinning values instead of storing the full series,
// keeping memory at Θ(|tracked| · |thinnings|).
package autocorr

import "math"

// Collector accumulates thinned transition counts for a set of tracked
// edges.
type Collector struct {
	thinnings []int
	nEdges    int
	// Per (thinning, edge): transition counts n00, n01, n10, n11 of the
	// k-thinned series, plus the previous thinned observation.
	counts [][4]uint32
	prev   []uint8 // 0 = absent, 1 = present, 2 = unseen
	steps  int
}

// NewCollector prepares a collector for nEdges tracked edges and the
// given thinning values (each >= 1, typically small composites; compare
// Fig. 3's remark on thinning quantization).
func NewCollector(nEdges int, thinnings []int) *Collector {
	for _, k := range thinnings {
		if k < 1 {
			panic("autocorr: thinning value < 1")
		}
	}
	c := &Collector{
		thinnings: append([]int(nil), thinnings...),
		nEdges:    nEdges,
		counts:    make([][4]uint32, len(thinnings)*nEdges),
		prev:      make([]uint8, len(thinnings)*nEdges),
	}
	for i := range c.prev {
		c.prev[i] = 2
	}
	return c
}

// Thinnings returns the configured thinning values.
func (c *Collector) Thinnings() []int { return c.thinnings }

// Record ingests the chain state after superstep t (t = 0 is the initial
// graph; call with strictly increasing t). bits[e] must hold the
// existence bit of tracked edge e.
func (c *Collector) Record(t int, bits []bool) {
	if len(bits) != c.nEdges {
		panic("autocorr: bit vector length mismatch")
	}
	for ti, k := range c.thinnings {
		if t%k != 0 {
			continue
		}
		base := ti * c.nEdges
		for e, b := range bits {
			i := base + e
			var cur uint8
			if b {
				cur = 1
			}
			if p := c.prev[i]; p != 2 {
				c.counts[i][p<<1|cur]++
			}
			c.prev[i] = cur
		}
	}
	c.steps = t
}

// g2 computes the G²-statistic of the 2x2 transition table against the
// independence model. Zero cells contribute nothing (the MLE convention).
func g2(n [4]uint32) (float64, uint32) {
	n00, n01, n10, n11 := float64(n[0]), float64(n[1]), float64(n[2]), float64(n[3])
	total := n00 + n01 + n10 + n11
	if total == 0 {
		return 0, 0
	}
	r0 := n00 + n01
	r1 := n10 + n11
	c0 := n00 + n10
	c1 := n01 + n11
	var s float64
	add := func(nij, ri, cj float64) {
		if nij > 0 {
			s += nij * math.Log(nij*total/(ri*cj))
		}
	}
	add(n00, r0, c0)
	add(n01, r0, c1)
	add(n10, r1, c0)
	add(n11, r1, c1)
	return 2 * s, uint32(total)
}

// EdgeIndependent decides, for tracked edge e at thinning index ti,
// whether the thinned series is better explained by independent draws
// than by a first-order Markov chain: the Markov model spends one extra
// free parameter, so BIC prefers independence iff G² <= ln(N).
func (c *Collector) EdgeIndependent(ti, e int) bool {
	stat, n := g2(c.counts[ti*c.nEdges+e])
	if n == 0 {
		return true // no data: a constant edge is trivially independent
	}
	return stat <= math.Log(float64(n))
}

// FractionNonIndependent returns, for each thinning value (in the order
// of Thinnings), the fraction of tracked edges whose thinned series is
// still Markov-like — the y-axis of Figures 2 and 3.
func (c *Collector) FractionNonIndependent() []float64 {
	out := make([]float64, len(c.thinnings))
	for ti := range c.thinnings {
		bad := 0
		for e := 0; e < c.nEdges; e++ {
			if !c.EdgeIndependent(ti, e) {
				bad++
			}
		}
		out[ti] = float64(bad) / float64(c.nEdges)
	}
	return out
}

// Samples returns the number of thinned transitions available at
// thinning index ti for a full series of the recorded length.
func (c *Collector) Samples(ti int) int {
	return c.steps / c.thinnings[ti]
}

// DefaultThinnings returns the thinning schedule used by the experiment
// drivers: small composite-friendly values up to max (the paper likewise
// avoids large primes to keep the quantization even).
func DefaultThinnings(max int) []int {
	candidates := []int{1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128, 192, 256}
	var out []int
	for _, k := range candidates {
		if k <= max {
			out = append(out, k)
		}
	}
	return out
}
