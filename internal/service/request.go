// Package service is the sampling service subsystem: a request model
// with typed validation, an engine pool that reuses compiled Samplers
// (and their persistent worker gangs) across requests, a job scheduler
// with a global worker budget and admission control, and an HTTP layer
// streaming ensembles as NDJSON. cmd/gesmcd is the daemon wrapping this
// package; the wire package defines the JSON formats.
package service

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"slices"
	"time"

	"gesmc"
	"gesmc/wire"
)

// Typed service errors. The HTTP layer maps them to status codes
// (ErrBadRequest → 400, ErrOverloaded → 429, ErrShuttingDown → 503);
// embedded callers classify them with errors.Is.
var (
	// ErrBadRequest is the sentinel wrapped by every request
	// validation failure.
	ErrBadRequest = errors.New("service: invalid request")
	// ErrOverloaded is returned when the admission queue is full; the
	// client should back off and retry.
	ErrOverloaded = errors.New("service: overloaded, admission queue full")
	// ErrShuttingDown is returned for requests arriving after Shutdown
	// began.
	ErrShuttingDown = errors.New("service: shutting down")
	// ErrBackend is the sentinel matched by backend transport failures
	// (RemoteBackend, the cluster coordinator); the HTTP layer maps it
	// to 502.
	ErrBackend = errors.New("service: backend unavailable")
)

// RequestError is a validation failure for one request field. It wraps
// ErrBadRequest.
type RequestError struct {
	Field  string
	Reason string
}

func (e *RequestError) Error() string {
	return fmt.Sprintf("service: invalid request: %s: %s", e.Field, e.Reason)
}

func (e *RequestError) Unwrap() error { return ErrBadRequest }

// targetKind enumerates the supported target specifications.
type targetKind uint8

const (
	targetDegrees targetKind = iota + 1
	targetInOut
	targetBipartite
	targetEdges
	targetArcs
)

// Request is the validated, resolved form of one sampling job: a
// target specification plus the sampler options. Build one from the
// wire form with FromWire, or fill it directly for embedded use.
type Request struct {
	kind targetKind

	degrees    []int
	outDegrees []int
	inDegrees  []int
	left       []int
	right      []int
	nodes      int
	edges      [][2]uint32

	// Algorithm, Workers, Seed, Samples, BurnIn, Thinning,
	// SwapsPerEdge mirror the Sampler options; Timeout bounds the
	// whole job including queue wait.
	Algorithm    gesmc.Algorithm
	Workers      int
	Seed         uint64
	Samples      int
	BurnIn       int
	Thinning     int
	SwapsPerEdge float64
	Timeout      time.Duration

	// ResumeFrom starts the stream at this sample index instead of 0:
	// the engine is fast-forwarded to the canonical position of sample
	// ResumeFrom (burn-in + ResumeFrom·thinning supersteps from the
	// compiled target), so the response is bit-identical to the suffix
	// of the uninterrupted stream. It does not change the engine-pool
	// key — a resumed stream is the same chain.
	ResumeFrom int

	// Connected and ForbiddenEdges map to gesmc.WithConstraint on the
	// compiled sampler: every streamed sample is connected and avoids
	// the forbidden pairs. A target outside the constrained space
	// (disconnected, or containing a forbidden edge) fails validation
	// at compile time and surfaces as a 400.
	Connected      bool
	ForbiddenEdges [][2]uint32
}

// FromWire validates a wire request and resolves defaults. All
// failures wrap ErrBadRequest.
func FromWire(wr *wire.SampleRequest) (*Request, error) {
	if wr == nil {
		return nil, &RequestError{Field: "body", Reason: "missing request body"}
	}
	r := &Request{
		Workers:        wr.Workers,
		Seed:           wr.Seed,
		Samples:        wr.Samples,
		BurnIn:         wr.BurnIn,
		Thinning:       wr.Thinning,
		SwapsPerEdge:   wr.SwapsPerEdge,
		ResumeFrom:     wr.ResumeFrom,
		nodes:          wr.Nodes,
		Connected:      wr.Connected,
		ForbiddenEdges: wr.ForbiddenEdges,
	}
	if wr.TimeoutMS < 0 {
		return nil, &RequestError{Field: "timeout_ms", Reason: "must be non-negative"}
	}
	r.Timeout = time.Duration(wr.TimeoutMS) * time.Millisecond

	// Exactly one target spec.
	specs := 0
	if len(wr.Degrees) > 0 {
		r.kind, r.degrees = targetDegrees, wr.Degrees
		specs++
	}
	if len(wr.OutDegrees) > 0 || len(wr.InDegrees) > 0 {
		if len(wr.OutDegrees) != len(wr.InDegrees) {
			return nil, &RequestError{Field: "out_degrees/in_degrees",
				Reason: fmt.Sprintf("length mismatch: %d vs %d", len(wr.OutDegrees), len(wr.InDegrees))}
		}
		r.kind, r.outDegrees, r.inDegrees = targetInOut, wr.OutDegrees, wr.InDegrees
		specs++
	}
	if len(wr.BipartiteLeft) > 0 || len(wr.BipartiteRight) > 0 {
		if len(wr.BipartiteLeft) == 0 || len(wr.BipartiteRight) == 0 {
			return nil, &RequestError{Field: "bipartite_left/bipartite_right",
				Reason: "both sides must be non-empty"}
		}
		r.kind, r.left, r.right = targetBipartite, wr.BipartiteLeft, wr.BipartiteRight
		specs++
	}
	if len(wr.Edges) > 0 {
		if wr.Directed {
			r.kind = targetArcs
		} else {
			r.kind = targetEdges
		}
		r.edges = wr.Edges
		specs++
	}
	switch {
	case specs == 0:
		return nil, &RequestError{Field: "target",
			Reason: "one of degrees, out_degrees+in_degrees, bipartite_left+bipartite_right, or edges is required"}
	case specs > 1:
		return nil, &RequestError{Field: "target", Reason: "multiple target specifications"}
	}

	if wr.Algorithm == "" {
		r.Algorithm = gesmc.ParGlobalES
	} else {
		alg, err := gesmc.ParseAlgorithm(wr.Algorithm)
		if err != nil {
			return nil, &RequestError{Field: "algorithm",
				Reason: fmt.Sprintf("unknown %q (served: %v)", wr.Algorithm, gesmc.Algorithms())}
		}
		r.Algorithm = alg
	}
	// The uniformity knob routes between tiers by normalizing into the
	// algorithm: "exact" selects gesmc.Exact (so the engine-pool key —
	// which already folds in the algorithm — separates exact engines
	// from chains with no extra field), "mcmc"/"" keeps the chain the
	// algorithm picked. Contradictions are rejected rather than
	// resolved: a caller naming both tiers has a confused request.
	switch wr.Uniformity {
	case "":
	case "mcmc":
		if r.Algorithm == gesmc.Exact {
			return nil, &RequestError{Field: "uniformity",
				Reason: `algorithm "Exact" contradicts uniformity "mcmc"`}
		}
	case "exact":
		if wr.Algorithm != "" && r.Algorithm != gesmc.Exact {
			return nil, &RequestError{Field: "uniformity",
				Reason: fmt.Sprintf("uniformity %q contradicts algorithm %q", wr.Uniformity, wr.Algorithm)}
		}
		r.Algorithm = gesmc.Exact
	default:
		return nil, &RequestError{Field: "uniformity",
			Reason: fmt.Sprintf("unknown %q (want \"exact\" or \"mcmc\")", wr.Uniformity)}
	}
	if r.Workers == 0 {
		r.Workers = 1
	}
	if r.Samples == 0 {
		r.Samples = 1
	}
	if err := r.Validate(); err != nil {
		return nil, err
	}
	return r, nil
}

// Validate checks the resolved request. It is called by FromWire and
// again by Service.Sample, so directly-constructed Requests get the
// same screening.
func (r *Request) Validate() error {
	if r.kind == 0 {
		return &RequestError{Field: "target", Reason: "no target specification"}
	}
	if r.Workers < 1 {
		return &RequestError{Field: "workers", Reason: "must be at least 1"}
	}
	if r.Samples < 1 {
		return &RequestError{Field: "samples", Reason: "must be at least 1"}
	}
	if r.BurnIn < 0 {
		return &RequestError{Field: "burn_in", Reason: "must be non-negative"}
	}
	if r.Thinning < 0 {
		return &RequestError{Field: "thinning", Reason: "must be non-negative"}
	}
	if !(r.SwapsPerEdge >= 0) || math.Ceil(2*r.SwapsPerEdge) >= math.MaxInt {
		// The ceil(2s) burn-in supersteps must fit in an int, exactly
		// as gesmc.WithSwapsPerEdge requires.
		return &RequestError{Field: "swaps_per_edge", Reason: "must be finite, non-negative, and small enough for its burn-in to fit in an int"}
	}
	if r.ResumeFrom < 0 {
		return &RequestError{Field: "resume_from", Reason: "must be non-negative"}
	}
	if r.ResumeFrom >= r.Samples {
		return &RequestError{Field: "resume_from",
			Reason: fmt.Sprintf("resume point %d at or past ensemble size %d", r.ResumeFrom, r.Samples)}
	}
	for i, d := range r.degrees {
		if d < 0 {
			return &RequestError{Field: "degrees", Reason: fmt.Sprintf("degree[%d] = %d is negative", i, d)}
		}
	}
	for i, e := range r.ForbiddenEdges {
		if e[0] == e[1] {
			return &RequestError{Field: "forbidden_edges",
				Reason: fmt.Sprintf("edge[%d] = (%d, %d) is a loop", i, e[0], e[1])}
		}
	}
	// Realizability gates: a non-realizable sequence is answered by an
	// O(n log n) predicate here, before target compilation, so every
	// target class 400s the same way the undirected path always has
	// (the constructions would fail too, but only after their
	// O(n² log n) attempt).
	switch r.kind {
	case targetDegrees:
		if !gesmc.IsGraphical(r.degrees) {
			return &RequestError{Field: "degrees",
				Reason: "degree sequence is not graphical (Erdős–Gallai)"}
		}
	case targetInOut:
		if !gesmc.IsDigraphical(r.outDegrees, r.inDegrees) {
			return &RequestError{Field: "out_degrees/in_degrees",
				Reason: "bi-sequence is not digraphical (Fulkerson–Chen–Anstee)"}
		}
	case targetBipartite:
		if !gesmc.IsBigraphical(r.left, r.right) {
			return &RequestError{Field: "bipartite_left/bipartite_right",
				Reason: "sequence pair is not bigraphical (Gale–Ryser)"}
		}
	}
	if r.Algorithm == gesmc.Exact {
		if err := r.validateExact(); err != nil {
			return err
		}
	}
	return nil
}

// validateExact rejects the request shapes the exact tier cannot
// serve, with field-level errors naming the offending knob — the
// sampler would reject them too (ErrExactSchedule and friends), but
// by then the request has consumed a queue slot and compiled a
// target.
func (r *Request) validateExact() error {
	switch r.kind {
	case targetInOut, targetBipartite, targetArcs:
		return &RequestError{Field: "uniformity",
			Reason: "exact sampling supports undirected targets only; use uniformity \"mcmc\""}
	}
	if r.BurnIn != 0 {
		return &RequestError{Field: "burn_in",
			Reason: "exact draws are i.i.d.; burn-in does not apply"}
	}
	if r.Thinning != 0 {
		return &RequestError{Field: "thinning",
			Reason: "exact draws are i.i.d.; thinning does not apply"}
	}
	if r.SwapsPerEdge != 0 {
		return &RequestError{Field: "swaps_per_edge",
			Reason: "exact draws are i.i.d.; swaps-per-edge does not apply"}
	}
	if r.Connected || len(r.ForbiddenEdges) > 0 {
		return &RequestError{Field: "connected/forbidden_edges",
			Reason: "constraints are not supported by the exact tier; use uniformity \"mcmc\""}
	}
	return nil
}

// buildTarget materializes the request's target graph. Infeasible
// specifications (non-graphical sequences, malformed edge lists)
// surface as *RequestError.
func (r *Request) buildTarget() (gesmc.Target, error) {
	wrap := func(field string, err error) error {
		return &RequestError{Field: field, Reason: err.Error()}
	}
	switch r.kind {
	case targetDegrees:
		g, err := gesmc.FromDegrees(r.degrees)
		if err != nil {
			return nil, wrap("degrees", err)
		}
		return g, nil
	case targetInOut:
		g, err := gesmc.FromInOutDegrees(r.outDegrees, r.inDegrees)
		if err != nil {
			return nil, wrap("out_degrees/in_degrees", err)
		}
		return g, nil
	case targetBipartite:
		g, err := gesmc.FromBipartiteDegrees(r.left, r.right)
		if err != nil {
			return nil, wrap("bipartite_left/bipartite_right", err)
		}
		return g, nil
	case targetEdges:
		g, err := gesmc.NewGraph(r.edgeNodes(), r.edges)
		if err != nil {
			return nil, wrap("edges", err)
		}
		return g, nil
	case targetArcs:
		g, err := gesmc.NewDiGraph(r.edgeNodes(), r.edges)
		if err != nil {
			return nil, wrap("edges", err)
		}
		return g, nil
	}
	return nil, &RequestError{Field: "target", Reason: "no target specification"}
}

// edgeNodes resolves the node count of an explicit edge list: the
// declared count when given, otherwise max endpoint + 1.
func (r *Request) edgeNodes() int {
	n := r.nodes
	for _, e := range r.edges {
		if int(e[0]) >= n {
			n = int(e[0]) + 1
		}
		if int(e[1]) >= n {
			n = int(e[1]) + 1
		}
	}
	return n
}

// samplerOptions converts the request to Sampler options.
func (r *Request) samplerOptions() []gesmc.Option {
	opts := []gesmc.Option{
		gesmc.WithAlgorithm(r.Algorithm),
		gesmc.WithWorkers(r.Workers),
		gesmc.WithSeed(r.Seed),
	}
	if r.SwapsPerEdge > 0 {
		opts = append(opts, gesmc.WithSwapsPerEdge(r.SwapsPerEdge))
	}
	if r.BurnIn > 0 {
		opts = append(opts, gesmc.WithBurnIn(r.BurnIn))
	}
	if r.Thinning > 0 {
		opts = append(opts, gesmc.WithThinning(r.Thinning))
	}
	if r.Connected {
		opts = append(opts, gesmc.WithConstraint(gesmc.Connected()))
	}
	if len(r.ForbiddenEdges) > 0 {
		opts = append(opts, gesmc.WithConstraint(gesmc.ForbiddenEdges(r.ForbiddenEdges)))
	}
	return opts
}

// engineKey identifies a compiled sampler for pooling: two requests
// share a pooled engine only if the compiled state would be identical —
// same target specification, algorithm, workers, seed, and chain
// schedule. Everything is folded into a 64-bit FNV-1a target digest
// plus the comparable option fields.
type engineKey struct {
	targetHash uint64
	algorithm  gesmc.Algorithm
	workers    int
	seed       uint64
	burnIn     int
	thinning   int
	swapsBits  uint64
}

func (r *Request) engineKey() engineKey {
	h := fnv.New64a()
	buf := make([]byte, 8)
	put := func(v uint64) {
		for i := range buf {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf)
	}
	// Every slice is length-prefixed: an in-band separator word would
	// collide with a degree of the same value, letting two different
	// targets share a pool key.
	putInts := func(vals []int) {
		put(uint64(len(vals)))
		for _, v := range vals {
			put(uint64(v))
		}
	}
	put(uint64(r.kind))
	put(uint64(r.nodes))
	putInts(r.degrees)
	putInts(r.outDegrees)
	putInts(r.inDegrees)
	putInts(r.left)
	putInts(r.right)
	put(uint64(len(r.edges)))
	for _, e := range r.edges {
		put(uint64(e[0])<<32 | uint64(e[1]))
	}
	// Constraints change the compiled chain, so they are part of the
	// engine identity: a connected-ensemble request must never resume
	// an unconstrained pooled engine (or vice versa). Forbidden edges
	// are hashed in the same canonical form the sampler compiles them
	// to — (min, max) for undirected targets — and sorted, so requests
	// that differ only in pair orientation or list order share a
	// pooled engine.
	if r.Connected {
		put(1)
	} else {
		put(0)
	}
	put(uint64(len(r.ForbiddenEdges)))
	if len(r.ForbiddenEdges) > 0 {
		directed := r.kind == targetArcs || r.kind == targetInOut || r.kind == targetBipartite
		packed := make([]uint64, len(r.ForbiddenEdges))
		for i, e := range r.ForbiddenEdges {
			u, v := e[0], e[1]
			if !directed && u > v {
				u, v = v, u
			}
			packed[i] = uint64(u)<<32 | uint64(v)
		}
		slices.Sort(packed)
		for _, p := range packed {
			put(p)
		}
	}
	return engineKey{
		targetHash: h.Sum64(),
		algorithm:  r.Algorithm,
		workers:    r.Workers,
		seed:       r.Seed,
		burnIn:     r.BurnIn,
		thinning:   r.Thinning,
		swapsBits:  math.Float64bits(r.SwapsPerEdge),
	}
}

// digest folds the full engine identity into one 64-bit value: the
// consistent-hash ring key of the cluster coordinator and the hot-key
// label of pool metrics. Two requests share a digest exactly when they
// would share a pooled engine (modulo FNV collisions).
func (k engineKey) digest() uint64 {
	h := fnv.New64a()
	buf := make([]byte, 8)
	put := func(v uint64) {
		for i := range buf {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf)
	}
	put(k.targetHash)
	put(uint64(k.algorithm))
	put(uint64(k.workers))
	put(k.seed)
	put(uint64(k.burnIn))
	put(uint64(k.thinning))
	put(k.swapsBits)
	return h.Sum64()
}

// PoolKey computes the engine-pool identity digest of a wire request:
// the value a cluster coordinator consistent-hashes onto its shard
// ring so same-key requests land on the shard holding their burned-in
// engine. Validation failures wrap ErrBadRequest, exactly as FromWire
// reports them.
func PoolKey(wr *wire.SampleRequest) (uint64, error) {
	r, err := FromWire(wr)
	if err != nil {
		return 0, err
	}
	return r.engineKey().digest(), nil
}
