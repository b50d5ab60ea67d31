// Package wire defines the JSON wire format of the gesmc sampling
// service: the request body of POST /v1/sample, the NDJSON sample lines
// the server streams back, and the health/metrics documents. It is the
// shared vocabulary of the server (internal/service), the daemon
// (cmd/gesmcd), the CLI's -format ndjson mode (cmd/gesmc), and client
// code (examples/service); keeping it public lets external callers
// marshal requests and decode streams with the exact types the server
// uses.
//
// A sampling response is NDJSON ("application/x-ndjson"): one Line per
// drawn sample, encoded and flushed as the engine produces it, so a
// client can consume an ensemble incrementally and the server never
// buffers more than one sample. A terminal error mid-stream is one
// final Line carrying Error/Code and no edges.
//
// Every producer and consumer goes through one line codec: AppendLine
// (and EncodeLine over it) writes exactly the bytes of json.Marshal
// plus '\n', with the edge list formatted by hand; DecodeLines frames
// the stream strictly by line — one JSON object per '\n'-terminated
// line, so a value spanning lines is an error — and parses the edge
// list of the encoder's canonical form directly, deferring every other
// line to encoding/json. Each decoded Line owns its Edges.
//
// Request bodies have their own decoder, DecodeRequest: it yields
// exactly what json.Unmarshal yields (trailing data after the object
// is an error), parsing the integer arrays of the canonical
// json.Marshal form directly and handing the rest of the object to
// encoding/json.
package wire

import "gesmc"

// SampleRequest is the body of POST /v1/sample. Exactly one target
// spec must be set:
//
//   - Degrees — an undirected degree sequence, realized with
//     Havel-Hakimi (gesmc.FromDegrees);
//   - OutDegrees+InDegrees — a directed bi-sequence, realized with
//     Kleitman-Wang (gesmc.FromInOutDegrees);
//   - BipartiteLeft+BipartiteRight — bipartite degree sequences
//     (gesmc.FromBipartiteDegrees);
//   - Edges (+Nodes, +Directed) — an explicit edge (or arc) list.
//
// The remaining fields mirror the Sampler options; zero values select
// the package defaults (ParGlobalES, 1 worker, burn-in from
// SwapsPerEdge, thinning = burn-in, 1 sample).
type SampleRequest struct {
	Degrees        []int `json:"degrees,omitempty"`
	OutDegrees     []int `json:"out_degrees,omitempty"`
	InDegrees      []int `json:"in_degrees,omitempty"`
	BipartiteLeft  []int `json:"bipartite_left,omitempty"`
	BipartiteRight []int `json:"bipartite_right,omitempty"`

	// Edges is an explicit target edge list; Nodes (optional) declares
	// the node count when isolated trailing nodes matter, and Directed
	// marks the pairs as (tail, head) arcs.
	Edges    [][2]uint32 `json:"edges,omitempty"`
	Nodes    int         `json:"nodes,omitempty"`
	Directed bool        `json:"directed,omitempty"`

	// Algorithm is a gesmc.ParseAlgorithm name ("" = ParGlobalES).
	Algorithm string `json:"algorithm,omitempty"`
	// Uniformity routes the request between the sampling tiers:
	// "exact" draws exactly uniform i.i.d. samples (gesmc.Exact —
	// undirected bounded-degree targets only; burn_in, thinning,
	// swaps_per_edge, and constraints must be unset, and a sequence
	// outside the tractable regime fails with a typed bad_request
	// rather than silently falling back), "mcmc" the asymptotically
	// uniform chains ("" = "mcmc"). Setting "exact" together with an
	// explicit non-Exact Algorithm is a contradiction and rejected.
	// Every streamed line reports the serving tier in
	// Stats.Uniformity.
	Uniformity string `json:"uniformity,omitempty"`
	// Workers is the parallelism degree P of the compiled engine; it
	// also counts against the service's global worker budget.
	Workers int `json:"workers,omitempty"`
	// Seed makes the request deterministic: against a cold engine, the
	// (target, options, seed) tuple fully determines every sample.
	Seed uint64 `json:"seed,omitempty"`
	// Samples is the ensemble size (0 = 1).
	Samples int `json:"samples,omitempty"`
	// BurnIn / Thinning / SwapsPerEdge resolve exactly like the
	// corresponding Sampler options.
	BurnIn       int     `json:"burn_in,omitempty"`
	Thinning     int     `json:"thinning,omitempty"`
	SwapsPerEdge float64 `json:"swaps_per_edge,omitempty"`
	// TimeoutMS bounds the whole request, including queue wait; 0
	// means no deadline beyond the server's own limits.
	TimeoutMS int `json:"timeout_ms,omitempty"`

	// ResumeFrom resumes the stream at this sample index: the response
	// carries lines ResumeFrom..Samples-1, bit-identical to the suffix
	// of the uninterrupted stream (given a seed, the whole stream is
	// deterministic in the request alone, so any backend can
	// reconstruct it by fast-forwarding a chain). Clients set it to
	// the Cursor of the last line they received to continue a broken
	// stream; the cluster coordinator sets it when failing a dying
	// backend's stream over to another shard. Must be < Samples.
	ResumeFrom int `json:"resume_from,omitempty"`

	// Connected constrains every sample to be connected (weakly
	// connected for directed targets); the realized target must be
	// connected or the request fails with 400. ForbiddenEdges
	// constrains every sample to avoid the given (u, v) pairs. Both
	// map to gesmc.WithConstraint on the compiled sampler.
	Connected      bool        `json:"connected,omitempty"`
	ForbiddenEdges [][2]uint32 `json:"forbidden_edges,omitempty"`
}

// Stats is the JSON form of gesmc.Stats.
type Stats struct {
	Algorithm string `json:"algorithm"`
	// Uniformity is the tier that produced the sample: "exact" for
	// gesmc.Exact (exactly uniform i.i.d. draws), "mcmc" for every
	// Markov chain.
	Uniformity         string  `json:"uniformity,omitempty"`
	Supersteps         int     `json:"supersteps"`
	Attempted          int64   `json:"attempted"`
	Accepted           int64   `json:"accepted"`
	AvgRounds          float64 `json:"avg_rounds,omitempty"`
	MaxRounds          int     `json:"max_rounds,omitempty"`
	LateRoundsFraction float64 `json:"late_rounds_fraction,omitempty"`
	// FirstRoundNS / LaterRoundsNS split the superstep wall time by
	// kernel phase (first dependency-free round vs. conflict-resolution
	// rounds); absent for sequential algorithms.
	FirstRoundNS  int64 `json:"first_round_ns,omitempty"`
	LaterRoundsNS int64 `json:"later_rounds_ns,omitempty"`
	// Constraint instrumentation (absent without constraints).
	ConstraintVetoes int64 `json:"constraint_vetoes,omitempty"`
	EscapeAttempts   int64 `json:"escape_attempts,omitempty"`
	EscapeMoves      int64 `json:"escape_moves,omitempty"`
	// Exact-tier instrumentation (absent on MCMC lines): rejected
	// configurations per draw, split by first defect found.
	Restarts     int64 `json:"restarts,omitempty"`
	LoopDefects  int64 `json:"loop_defects,omitempty"`
	MultiDefects int64 `json:"multi_defects,omitempty"`
	DurationNS   int64 `json:"duration_ns"`
	// Backend identifies the daemon (shard) whose engine produced this
	// sample: set by a server configured with an identity, and filled
	// in by the cluster coordinator for lines it proxies, so clients
	// can observe placement per sample.
	Backend string `json:"backend,omitempty"`
	// TraceID is the request trace this sample belongs to (%016x),
	// stamped by a telemetry-enabled server. All lines of one stream —
	// including a coordinated stream spliced across shard failovers —
	// carry the same ID; GET /v1/trace?id= dumps the trace's spans.
	TraceID string `json:"trace_id,omitempty"`
}

// FromStats converts sampler statistics to their wire form. The
// uniformity label is derived from the algorithm, so every producer —
// daemon, coordinator, and the CLI's local NDJSON mode — reports the
// serving tier without extra plumbing.
func FromStats(st gesmc.Stats) Stats {
	uniformity := "mcmc"
	if st.Algorithm == gesmc.Exact.String() {
		uniformity = "exact"
	}
	return Stats{
		Algorithm:          st.Algorithm,
		Uniformity:         uniformity,
		Supersteps:         st.Supersteps,
		Attempted:          st.Attempted,
		Accepted:           st.Accepted,
		AvgRounds:          st.AvgRounds,
		MaxRounds:          st.MaxRounds,
		LateRoundsFraction: st.LateRoundsFraction,
		FirstRoundNS:       st.FirstRoundTime.Nanoseconds(),
		LaterRoundsNS:      st.LaterRoundsTime.Nanoseconds(),
		ConstraintVetoes:   st.ConstraintVetoes,
		EscapeAttempts:     st.EscapeAttempts,
		EscapeMoves:        st.EscapeMoves,
		Restarts:           st.Restarts,
		LoopDefects:        st.LoopDefects,
		MultiDefects:       st.MultiDefects,
		DurationNS:         st.Duration.Nanoseconds(),
	}
}

// Line is one NDJSON line of a sampling response: either a drawn
// sample (Edges + Stats) or, terminally, an error marker (Error/Code
// set, no edges).
type Line struct {
	// Index is the sample's position in the ensemble, from 0.
	Index int `json:"index"`
	// Cursor is the resume point after this line: re-issue the request
	// with ResumeFrom = Cursor to continue the stream from the next
	// line. A sample line carries Index+1; an error line carries Index
	// (the failed sample is the one to retry). Zero on streams served
	// by pre-cursor backends.
	Cursor int `json:"cursor,omitempty"`
	// Nodes is the node count of the sampled graph.
	Nodes int `json:"nodes,omitempty"`
	// Directed marks Edges as (tail, head) arcs.
	Directed bool `json:"directed,omitempty"`
	// Edges is the sampled edge (or arc) list.
	Edges [][2]uint32 `json:"edges,omitempty"`
	// Stats covers the supersteps that produced this sample.
	Stats *Stats `json:"stats,omitempty"`
	// Error and Code report early termination (the stream ends after
	// an error line). Code is a stable machine-readable classifier
	// ("canceled", "deadline", "closed", "internal").
	Error string `json:"error,omitempty"`
	Code  string `json:"code,omitempty"`
	// TraceID ties an in-band error line to its request trace (sample
	// lines carry the ID inside Stats instead).
	TraceID string `json:"trace_id,omitempty"`
}

// FromSample converts one ensemble draw to its wire line. Terminal
// error samples map to error lines with an empty edge list.
func FromSample(smp gesmc.Sample) Line {
	ln := Line{Index: smp.Index}
	switch {
	case smp.Err != nil:
		ln.Error = smp.Err.Error()
	case smp.Graph != nil:
		ln.Nodes = smp.Graph.N()
		ln.Edges = smp.Graph.Edges()
	case smp.DiGraph != nil:
		ln.Nodes = smp.DiGraph.N()
		ln.Directed = true
		ln.Edges = smp.DiGraph.Arcs()
	}
	if smp.Err == nil {
		st := FromStats(smp.Stats)
		ln.Stats = &st
	}
	return ln
}

// Graph rebuilds the sample line's graph: (*gesmc.Graph, nil) for
// undirected lines, (nil, *gesmc.DiGraph) for directed ones.
func (ln *Line) Graph() (*gesmc.Graph, *gesmc.DiGraph, error) {
	if ln.Directed {
		dg, err := gesmc.NewDiGraph(ln.Nodes, ln.Edges)
		return nil, dg, err
	}
	g, err := gesmc.NewGraph(ln.Nodes, ln.Edges)
	return g, nil, err
}

// Error is the JSON body of a non-streaming error response (a request
// rejected before the first sample line): HTTP 400 for invalid
// requests, 429 when the admission queue is full, 503 during shutdown.
type Error struct {
	Error string `json:"error"`
	Code  string `json:"code"`
}

// Health is the body of GET /v1/healthz.
type Health struct {
	Status   string `json:"status"` // "ok" | "draining"
	UptimeMS int64  `json:"uptime_ms"`
}

// PoolMetrics describes the engine pool.
type PoolMetrics struct {
	// Engines is the number of idle compiled samplers currently pooled.
	Engines int `json:"engines"`
	// Capacity is the eviction threshold.
	Capacity int `json:"capacity"`
	// Hits / Misses count checkouts that reused a pooled engine vs.
	// compiled a fresh one; Evictions counts LRU closes.
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	// HitRate is Hits / (Hits + Misses), 0 when no checkouts happened.
	HitRate float64 `json:"hit_rate"`
	// HotKeys are the most-reused engine-pool keys (by hit count,
	// descending): the promotion signal a cluster coordinator uses to
	// replicate hot targets across shards.
	HotKeys []KeyHits `json:"hot_keys,omitempty"`
}

// KeyHits is one engine-pool key's reuse count. Key is the %016x form
// of the 64-bit pool-key digest (target digest + algorithm + workers +
// seed + schedule) — the same value the cluster coordinator hashes
// onto its shard ring.
type KeyHits struct {
	Key  string `json:"key"`
	Hits int64  `json:"hits"`
}

// ShardMetrics is one backend's entry in a coordinator's cluster view.
type ShardMetrics struct {
	ID    string `json:"id"`
	URL   string `json:"url"`
	Alive bool   `json:"alive"`
	// Breaker is the shard's circuit-breaker state: "closed" (serving),
	// "open" (tripped by consecutive failures, excluded from routing),
	// or "half_open" (cooled down, awaiting probe re-admission).
	Breaker string `json:"breaker,omitempty"`
	// Inflight is the number of requests this coordinator is currently
	// streaming through the shard; Requests counts attempts routed to
	// it (including failed ones), Errors the attempts that failed.
	Inflight int64 `json:"inflight"`
	Requests int64 `json:"requests"`
	Errors   int64 `json:"errors"`
}

// ClusterMetrics is the coordinator's placement view, nested under
// Metrics.Cluster when the serving backend is a coordinator.
type ClusterMetrics struct {
	Shards []ShardMetrics `json:"shards"`
	// RoutedOwner counts requests served by the ring owner of their
	// pool key; RoutedReplica those served by another replica of a hot
	// key; RoutedSpill those that fell through to a non-owner because
	// the owner was dead, overloaded (429), or draining (503).
	RoutedOwner   int64 `json:"routed_owner"`
	RoutedReplica int64 `json:"routed_replica"`
	RoutedSpill   int64 `json:"routed_spill"`
	// MidstreamFailovers counts post-first-line backend failures that
	// were transparently failed over: the stream was re-issued to
	// another shard with ResumeFrom set to the delivered prefix, and
	// the client never saw an error line. MidstreamFailures counts the
	// streams whose failover attempts exhausted and were terminated
	// with an honest in-band error line.
	MidstreamFailovers int64 `json:"midstream_failovers"`
	MidstreamFailures  int64 `json:"midstream_failures"`
	// Evictions counts alive→dead shard transitions (health-check
	// failures and transport errors); Revivals the dead→alive ones.
	Evictions int64 `json:"evictions"`
	Revivals  int64 `json:"revivals"`
	// HotKeys are the most-routed pool keys with their request counts;
	// keys at or beyond the promotion threshold are served by up to R
	// replicas.
	HotKeys []KeyHits `json:"hot_keys,omitempty"`
}

// Metrics is the body of GET /v1/metrics.
type Metrics struct {
	// Backend is the identity of the serving process (daemon shard or
	// coordinator), when it has one.
	Backend string `json:"backend,omitempty"`

	// RequestsTotal counts accepted sampling requests; Rejected counts
	// admission-control overload rejections, Failed counts requests
	// terminated by validation or runtime errors (cancellation
	// included).
	RequestsTotal    int64 `json:"requests_total"`
	RequestsInflight int64 `json:"requests_inflight"`
	RequestsRejected int64 `json:"requests_rejected"`
	RequestsFailed   int64 `json:"requests_failed"`
	// QueueDepth is the number of requests waiting for worker-budget
	// tokens; WorkerBudget/WorkersBusy account those tokens.
	QueueDepth   int64 `json:"queue_depth"`
	WorkerBudget int   `json:"worker_budget"`
	WorkersBusy  int64 `json:"workers_busy"`

	Pool PoolMetrics `json:"pool"`

	// SamplesTotal counts streamed sample lines; SuperstepsTotal and
	// SwitchesTotal aggregate engine work across all requests, and
	// SuperstepsPerSec is SuperstepsTotal over the uptime.
	SamplesTotal     int64   `json:"samples_total"`
	SuperstepsTotal  int64   `json:"supersteps_total"`
	SwitchesTotal    int64   `json:"switches_total"`
	SuperstepsPerSec float64 `json:"supersteps_per_sec"`
	UptimeMS         int64   `json:"uptime_ms"`
	// StartedAtMS is the process-start wall clock (Unix milliseconds):
	// a scraper diffing counters across polls detects a restart (and
	// resets its deltas) when StartedAtMS changes, where UptimeMS alone
	// is ambiguous under clock skew between scrapes.
	StartedAtMS int64 `json:"started_at_ms,omitempty"`

	// Cluster is the coordinator's placement view; absent on plain
	// daemons.
	Cluster *ClusterMetrics `json:"cluster,omitempty"`
}
