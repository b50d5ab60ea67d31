// Package exact draws exactly uniform samples of simple undirected
// graphs with a prescribed degree sequence — no Markov chain, no
// mixing-time assumption. It is the first tier of the exact-uniformity
// roadmap item, in the rejection regime of Arman, Gao & Wormald's
// switching-based generators: generate a uniformly random
// configuration (pairing) of the degree stubs, accept if the induced
// multigraph is simple, and restart from a fresh pairing otherwise.
//
// Uniformity is exact by a symmetry argument rather than by
// convergence: a uniformly random perfect matching of the 2m stubs
// induces every simple graph with the prescribed degrees through
// exactly ∏_v d_v! distinct matchings (one per way of assigning each
// node's edges to its labeled stubs), so conditioning on simplicity —
// which is all rejection does — leaves the uniform distribution over
// the simple realizations. There is no burn-in and no thinning; every
// accepted draw is independent of every other.
//
// The price is the acceptance probability, which for degree sequences
// with Σd(d-1) = O(Σd) converges to exp(-λ-λ²) with
// λ = Σd(d-1)/(2Σd) (Bender–Canfield; Bollobás). New therefore gates
// on λ+λ²: sequences beyond the threshold would need too many
// restarts per draw and are rejected up front with a typed
// *UnsupportedError, so callers can degrade to the MCMC tier
// explicitly — never silently. AGW's switching corrections, which
// repair defects instead of restarting and extend the tractable
// regime to much heavier tails, are the next tier (DESIGN.md §14).
package exact

import (
	"fmt"

	"gesmc/internal/gen"
	"gesmc/internal/graph"
	"gesmc/internal/rng"
	"gesmc/internal/switching"
)

// Sampler draws i.i.d. exactly uniform simple graphs with a fixed
// degree sequence. The draw sequence is deterministic per seed. A
// Sampler is not safe for concurrent use; concurrent callers hold one
// Sampler each (draws from distinct seeds are independent).
type Sampler struct {
	degrees []int
	n       int
	m       int // edges per realization: Σd/2

	// stubs holds node v repeated degrees[v] times; each attempt
	// shuffles it in place and pairs consecutive entries.
	stubs []graph.Node
	// mark is the per-attempt adjacency scratch used to detect
	// multi-edges, reset incrementally (O(edges seen), not O(n²)).
	mark    map[graph.Edge]struct{}
	scratch []graph.Edge

	rng *rng.SplitMix64
	// stats counts the work behind the draws. Where the MCMC tiers
	// count switch attempts, the exact tier's unit of work is the
	// configuration (pairing): Attempted counts configurations
	// generated, Legal the accepted draws (Legal/Attempted converges to
	// exp(-λ-λ²)), Restarts = Attempted - Legal the configurations
	// rejected for a defect, split into LoopDefects and MultiDefects by
	// the first defect found — the observable the regime gate's λ
	// (loops) + λ² (multi-edges) prediction speaks about.
	stats switching.Stats
}

// New builds a sampler for the degree sequence, validating that the
// sequence is graphical (gen.ErdosGallai; non-graphical sequences
// wrap gen.ErrNotGraphical) and inside the tractable rejection regime
// (see Supported; sequences beyond it return a *UnsupportedError).
// The sequence is copied.
func New(degrees []int, seed uint64) (*Sampler, error) {
	if !gen.ErdosGallai(degrees) {
		return nil, fmt.Errorf("%w: no simple graph realizes the sequence", gen.ErrNotGraphical)
	}
	if err := Supported(degrees); err != nil {
		return nil, err
	}
	d := make([]int, len(degrees))
	copy(d, degrees)
	sum := 0
	for _, dv := range d {
		sum += dv
	}
	s := &Sampler{
		degrees: d,
		n:       len(d),
		m:       sum / 2,
		rng:     rng.NewSplitMix64(seed),
	}
	s.stubs = make([]graph.Node, 0, sum)
	for v, dv := range d {
		for i := 0; i < dv; i++ {
			s.stubs = append(s.stubs, graph.Node(v))
		}
	}
	s.mark = make(map[graph.Edge]struct{}, s.m)
	s.scratch = make([]graph.Edge, 0, s.m)
	return s, nil
}

// N returns the node count of every drawn realization.
func (s *Sampler) N() int { return s.n }

// M returns the edge count of every drawn realization.
func (s *Sampler) M() int { return s.m }

// Degrees returns the sampler's degree sequence (shared; do not
// mutate).
func (s *Sampler) Degrees() []int { return s.degrees }

// Stats returns the rejection counters accumulated so far.
func (s *Sampler) Stats() switching.Stats { return s.stats }

// Draw returns one exactly uniform realization as a sorted edge list
// (a fresh slice, canonical (min,max) endpoint order). Draws are
// i.i.d.; the k-th draw from a given seed is always the same graph.
// Within the supported regime exhaustion of the restart budget has
// vanishing probability; it is reported as an error rather than a
// panic so a corrupted state never masquerades as a sample.
func (s *Sampler) Draw() ([]graph.Edge, error) {
	edges, err := s.draw()
	if err != nil {
		return nil, err
	}
	return append([]graph.Edge(nil), edges...), nil
}

// draw is Draw returning the sampler's scratch edge list, valid until
// the next draw.
func (s *Sampler) draw() ([]graph.Edge, error) {
	for attempt := 0; attempt < maxAttemptsPerDraw; attempt++ {
		s.stats.Attempted++
		if edges, ok := s.pairing(); ok {
			s.stats.Legal++
			return edges, nil
		}
		s.stats.Restarts++
	}
	return nil, fmt.Errorf("exact: restart budget (%d) exhausted for one draw; sequence λ+λ² = %.3f",
		maxAttemptsPerDraw, lambdaScore(s.degrees))
}

// DrawGraph is Draw returning a *graph.Graph (the edge list is
// sorted, so graph.NewUnchecked's invariants hold).
func (s *Sampler) DrawGraph() (*graph.Graph, error) {
	edges, err := s.Draw()
	if err != nil {
		return nil, err
	}
	return graph.NewUnchecked(s.n, edges), nil
}

// Stepper returns the sampler as a switching.Engine plug-in: one
// superstep is one fresh draw written over dst, the target's edge list
// (length M()), in place like the chains write their switched state.
// The sampler holds no chain state beyond its RNG stream position and
// no worker gang.
func (s *Sampler) Stepper(dst []graph.Edge) switching.Stepper {
	return &drawStepper{s: s, dst: dst}
}

type drawStepper struct {
	s   *Sampler
	dst []graph.Edge
}

func (p *drawStepper) Step(st *switching.Stats) error {
	before := p.s.stats
	edges, err := p.s.draw()
	st.Add(p.s.stats.Sub(before))
	if err != nil {
		return err
	}
	copy(p.dst, edges)
	return nil
}
