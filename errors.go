package gesmc

import "errors"

// Typed errors returned by option validation and sampler construction.
// All errors produced by this package wrap one of these sentinels, so
// callers can classify failures with errors.Is.
var (
	// ErrNilTarget is returned when NewSampler receives a nil graph.
	ErrNilTarget = errors.New("gesmc: nil sampling target")
	// ErrUnknownAlgorithm is returned for Algorithm values outside the
	// defined enum or unparseable algorithm names.
	ErrUnknownAlgorithm = errors.New("gesmc: unknown algorithm")
	// ErrUnsupportedAlgorithm is returned when the selected algorithm
	// cannot drive the selected target class (e.g. Curveball on a
	// digraph).
	ErrUnsupportedAlgorithm = errors.New("gesmc: algorithm not supported for this target")
	// ErrInvalidWorkers is returned for a negative or zero worker count
	// passed to WithWorkers.
	ErrInvalidWorkers = errors.New("gesmc: worker count must be at least 1")
	// ErrInvalidLoopProb is returned for a loop probability outside
	// [0, 1).
	ErrInvalidLoopProb = errors.New("gesmc: loop probability must lie in [0, 1)")
	// ErrInvalidSwapsPerEdge is returned for a non-positive, non-finite,
	// or too large swaps-per-edge target (the ceil(2s) burn-in
	// supersteps must fit in an int).
	ErrInvalidSwapsPerEdge = errors.New("gesmc: swaps per edge must be positive, finite, and small enough for its burn-in to fit in an int")
	// ErrInvalidBurnIn is returned for a burn-in below one superstep.
	ErrInvalidBurnIn = errors.New("gesmc: burn-in must be at least 1 superstep")
	// ErrInvalidThinning is returned for a thinning below one superstep.
	ErrInvalidThinning = errors.New("gesmc: thinning must be at least 1 superstep")
	// ErrInvalidSupersteps is returned when a negative superstep count is
	// requested from Step, or fewer than 16 supersteps from
	// AnalyzeMixing.
	ErrInvalidSupersteps = errors.New("gesmc: invalid superstep count")
	// ErrInvalidCount is returned for a negative ensemble size, and by
	// FastForwardTo for a negative sample index or one whose superstep
	// position overflows int.
	ErrInvalidCount = errors.New("gesmc: invalid sample count")
	// ErrGraphTooSmall is returned for target graphs with fewer than two
	// edges, on which no switch (and no trade) is defined.
	ErrGraphTooSmall = errors.New("gesmc: graph has fewer than 2 edges")
	// ErrClosed is returned by Step, Sample, Ensemble, and Collect on a
	// Sampler whose Close has been called: the persistent worker gang is
	// released and the chain cannot advance. Close itself is idempotent,
	// so pooling layers may double-close defensively.
	ErrClosed = errors.New("gesmc: sampler is closed")
	// ErrResumeBehind is returned by FastForwardTo when the chain has
	// already advanced past the requested sample's superstep position.
	// Markov chains only run forward: a sampler that overshot the
	// resume point cannot serve it, and the caller must compile a
	// fresh chain instead.
	ErrResumeBehind = errors.New("gesmc: chain already past the resume point")
	// ErrInvalidConstraint is returned for malformed constraints: loop
	// or out-of-range edges in ForbiddenEdges/ProtectedEdges, a
	// NodeClasses array whose length differs from the node count, or a
	// zero Constraint value.
	ErrInvalidConstraint = errors.New("gesmc: invalid constraint")
	// ErrUnsupportedConstraint is returned when WithConstraint is
	// combined with an algorithm outside the constrained set (SeqES,
	// SeqGlobalES, ParES, ParGlobalES, and the directed chains).
	ErrUnsupportedConstraint = errors.New("gesmc: constraint not supported for this algorithm")
	// ErrConstraintViolated is returned when the target graph itself
	// lies outside the constrained state space: it contains a forbidden
	// edge, misses a protected edge, or is disconnected under
	// Connected(). The chain must start inside the space it samples.
	ErrConstraintViolated = errors.New("gesmc: target violates constraint")
	// ErrExactUnsupported is returned by NewSampler with Algorithm
	// Exact when the target's degree sequence lies outside the exact
	// tier's tractable rejection regime (λ+λ² too large; see DESIGN.md
	// §14). The sampler never falls back to MCMC silently — callers
	// choose the degradation by retrying with an MCMC algorithm.
	ErrExactUnsupported = errors.New("gesmc: degree sequence outside the exact sampler's tractable regime")
	// ErrExactSchedule is returned when WithBurnIn, WithThinning, or
	// WithSwapsPerEdge is combined with Algorithm Exact: exact draws
	// are i.i.d., so a chain schedule has nothing to schedule and a
	// request carrying one is almost certainly a misdirected MCMC
	// request.
	ErrExactSchedule = errors.New("gesmc: exact draws are i.i.d.; burn-in/thinning/swaps-per-edge do not apply")
)
