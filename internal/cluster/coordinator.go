package cluster

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"gesmc/internal/service"
	"gesmc/internal/telemetry"
	"gesmc/wire"
)

// ShardConfig names one gesmcd backend.
type ShardConfig struct {
	// ID is the shard's ring identity; it must be stable across
	// coordinator restarts for keys to keep their owners. Empty
	// defaults to URL.
	ID string
	// URL is the backend's base URL ("host:port" gets http://).
	URL string
}

// Config sizes the coordinator. Zero values select the defaults.
type Config struct {
	// Shards is the backend set; at least one is required.
	Shards []ShardConfig
	// ID is the coordinator's own identity, exported in Metrics.
	ID string
	// Replication R is the maximum number of shards serving one hot
	// key (default 2). Cold keys always route to their single ring
	// owner, keeping placement deterministic.
	Replication int
	// HotThreshold is the routed-request count at which a key is
	// promoted to replicated service (default 16).
	HotThreshold int64
	// HealthInterval is the background health-check period (default
	// 2s, jittered ±20% per round; negative disables the loop —
	// CheckHealth can still be called explicitly).
	HealthInterval time.Duration
	// MaxAttempts bounds how many shards one request may be issued to,
	// counting the first (default 4). Mid-stream failovers that make
	// progress re-issue with a resume cursor and count against this
	// bound.
	MaxAttempts int
	// BreakerCooldown is how long a tripped breaker stays open before
	// health probes may begin re-admission (default 3s).
	BreakerCooldown time.Duration
	// BreakerProbes is the consecutive probe successes half-open
	// requires before the shard serves again (default 2 — a flapping
	// backend that alternates good and bad probes never re-admits).
	BreakerProbes int
	// Client issues all backend requests (nil selects RemoteBackend's
	// default client with dial and header timeouts). Streams live as
	// long as their request contexts, so it must not carry a global
	// timeout.
	Client *http.Client
	// NoTelemetry disables tracing, latency histograms, and Prometheus
	// exposition for this coordinator (on by default).
	NoTelemetry bool
	// Logger receives structured request, failover, and breaker-
	// transition logs with trace IDs. Nil discards them.
	Logger *slog.Logger
}

const (
	// ringVNodes is the number of ring points per shard.
	ringVNodes = 64
	// probeTimeout bounds one health probe.
	probeTimeout = time.Second
	// breakerThreshold is the consecutive-failure count that trips a
	// shard's circuit breaker open: the first transport or probe
	// failure evicts.
	breakerThreshold = 1
)

func (c Config) withDefaults() Config {
	if c.Replication <= 0 {
		c.Replication = 2
	}
	if c.HotThreshold <= 0 {
		c.HotThreshold = 16
	}
	if c.HealthInterval == 0 {
		c.HealthInterval = 2 * time.Second
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 4
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 3 * time.Second
	}
	if c.BreakerProbes <= 0 {
		c.BreakerProbes = 2
	}
	return c
}

// shard is one backend plus its routing state. Liveness is the shard's
// circuit breaker: closed admits traffic, open/half-open routes around
// it.
type shard struct {
	id      string
	backend *service.RemoteBackend
	brk     *breaker

	inflight atomic.Int64
	requests atomic.Int64
	errors   atomic.Int64
}

// Coordinator routes sampling requests across a ring of remote gesmcd
// backends by engine-pool key and implements service.Backend, so it
// serves the same HTTP/NDJSON protocol via service.NewBackendHandler.
//
// Routing policy, in order:
//
//  1. Cold keys go to their ring owner — deterministic placement, so
//     every same-key request finds the shard holding its burned-in
//     pooled engine.
//  2. Keys routed HotThreshold+ times are served by their first R ring
//     successors round-robin, trading a little pool locality (each
//     replica burns in its own engine once) for R-way throughput on
//     the keys that dominate traffic.
//  3. A dead owner is skipped by the ring itself (keys re-hash to the
//     next live successor); an owner answering 429/503 — or dying
//     before its first line — spills to the remaining candidates:
//     first the other replicas in ring order, then every other live
//     shard, least-loaded first.
//
// Mid-stream failures fail over transparently: chains are bit-exact
// functions of (request, seed), so when a shard dies after delivering
// k lines the coordinator re-issues the request to the next candidate
// with ResumeFrom = k and the replacement fast-forwards its own chain
// to the same superstep, continuing the identical stream. The client
// sees one unbroken ensemble. Only when every candidate (bounded by
// MaxAttempts) has failed does the coordinator terminate the stream
// with an in-band error line, exactly as a single daemon would.
//
// Shard liveness is a per-shard circuit breaker: consecutive failures
// (transport errors or failed health probes) trip it open, a cooldown
// later health probes drive it through half-open, and only
// BreakerProbes consecutive good probes re-admit the shard — so a
// flapping backend stays out of the ring instead of dropping every
// other request routed to it.
type Coordinator struct {
	cfg    Config
	ring   *ring
	shards []*shard
	start  time.Time
	tm     *coordTelemetry

	hotMu   sync.Mutex
	hotKeys map[uint64]int64

	routedOwner        atomic.Int64
	routedReplica      atomic.Int64
	routedSpill        atomic.Int64
	midstream          atomic.Int64
	midstreamFailovers atomic.Int64
	evictions          atomic.Int64
	revivals           atomic.Int64
	failed             atomic.Int64
	samples            atomic.Int64

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// maxHotKeys bounds the promotion counter map, like the engine pool's
// tracker: on saturation it resets and re-warms on the actually hot
// keys.
const maxHotKeys = 65536

// New builds a Coordinator and, unless disabled, starts its health
// loop. All shards start alive; the first health round (run CheckHealth
// for a synchronous one) corrects that optimism.
func New(cfg Config) (*Coordinator, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Shards) == 0 {
		return nil, errors.New("cluster: no shards configured")
	}
	ctx, cancel := context.WithCancel(context.Background())
	c := &Coordinator{
		cfg:     cfg,
		start:   time.Now(),
		tm:      newCoordTelemetry(!cfg.NoTelemetry, cfg.Logger),
		hotKeys: make(map[uint64]int64),
		ctx:     ctx,
		cancel:  cancel,
	}
	ids := make([]string, len(cfg.Shards))
	seen := make(map[string]bool, len(cfg.Shards))
	for i, sc := range cfg.Shards {
		b := service.NewRemoteBackend(sc.URL, cfg.Client).WithMetrics(c.tm.roundTrip, c.tm.backoff)
		id := sc.ID
		if id == "" {
			id = b.URL()
		}
		if seen[id] {
			cancel()
			return nil, fmt.Errorf("cluster: duplicate shard id %q", id)
		}
		seen[id] = true
		ids[i] = id
		brk := newBreaker(breakerThreshold, cfg.BreakerCooldown, cfg.BreakerProbes)
		// Breaker transitions were previously silent; surface every one
		// with the shard ID, through the structured logger and the
		// labeled transition counter.
		shardID := id
		brk.notify = func(from, to breakerState) {
			c.tm.log.Warn("breaker transition",
				slog.String("shard", shardID),
				slog.String("from", from.String()),
				slog.String("to", to.String()))
			c.tm.breakerTransitions.With(telemetry.Labels("shard", shardID, "to", to.String())).Inc()
		}
		c.shards = append(c.shards, &shard{
			id:      id,
			backend: b,
			brk:     brk,
		})
	}
	c.ring = newRing(ids, ringVNodes)
	c.registerFuncMetrics()
	if cfg.HealthInterval > 0 {
		c.wg.Add(1)
		go c.healthLoop()
	}
	return c, nil
}

// Close stops the health loop (cancelling any probe in flight).
// In-flight streams are unaffected (they run on the caller's
// contexts).
func (c *Coordinator) Close() {
	c.cancel()
	c.wg.Wait()
}

func (c *Coordinator) healthLoop() {
	defer c.wg.Done()
	for {
		// ±20% jitter per round decorrelates probe bursts when a fleet
		// of coordinators watches the same shards.
		d := time.Duration(float64(c.cfg.HealthInterval) * (0.8 + 0.4*rand.Float64()))
		t := time.NewTimer(d)
		select {
		case <-c.ctx.Done():
			t.Stop()
			return
		case <-t.C:
		}
		c.CheckHealth(c.ctx)
	}
}

// CheckHealth probes every shard once (bounded by probeTimeout each)
// and feeds the outcomes to the shards' circuit breakers: a probe
// succeeds when /v1/healthz answers "ok" — a draining daemon (503) is
// routed around just like a dead one, since it refuses new work
// anyway. Tripping a breaker re-hashes the shard's keys to their next
// live ring successor; a recovered shard takes its arcs back once the
// breaker closes again (cooldown + BreakerProbes consecutive good
// probes).
func (c *Coordinator) CheckHealth(ctx context.Context) {
	var wg sync.WaitGroup
	for _, sh := range c.shards {
		wg.Add(1)
		go func(sh *shard) {
			defer wg.Done()
			pctx, cancel := context.WithTimeout(ctx, probeTimeout)
			defer cancel()
			h, err := sh.backend.Health(pctx)
			if err == nil && h.Status == "ok" {
				if sh.brk.onSuccess() {
					c.revivals.Add(1)
				}
			} else if sh.brk.onFailure() {
				c.evictions.Add(1)
			}
		}(sh)
	}
	wg.Wait()
}

// noteKey bumps the key's routed count and reports whether the key is
// hot (at or beyond the promotion threshold) plus the count, which
// rotates the replica choice.
func (c *Coordinator) noteKey(key uint64) (int64, bool) {
	c.hotMu.Lock()
	defer c.hotMu.Unlock()
	if len(c.hotKeys) >= maxHotKeys {
		c.hotKeys = make(map[uint64]int64)
	}
	c.hotKeys[key]++
	n := c.hotKeys[key]
	return n, n >= c.cfg.HotThreshold
}

// routeClass labels how a request reached its serving shard.
type routeClass uint8

const (
	routeOwner routeClass = iota
	routeReplica
	routeSpill
)

type candidate struct {
	sh    *shard
	class routeClass
}

// candidates orders the shards to try for key: the owner (or the hot
// key's rotated replica set), then every other live shard as spill
// targets, least-loaded first.
func (c *Coordinator) candidates(key uint64, seq int64, hot bool) []candidate {
	aliveFn := func(i int) bool { return c.shards[i].brk.available() }
	want := 1
	if hot {
		want = c.cfg.Replication
	}
	owners := c.ring.owners(key, want, aliveFn)
	out := make([]candidate, 0, len(c.shards))
	inOwners := make(map[*shard]bool, len(owners))
	// Rotate the replica set by the routed count so a hot key's
	// requests round-robin across its replicas; with one owner the
	// rotation is the identity.
	for i := range owners {
		sh := c.shards[owners[(int(seq)+i)%len(owners)]]
		class := routeOwner
		if hot && len(owners) > 1 && i != 0 {
			// Positions after the rotated head are fallbacks; the head
			// itself is the replica this request is assigned to.
			class = routeSpill
		}
		if i == 0 && hot && len(owners) > 1 {
			class = routeReplica
		}
		inOwners[sh] = true
		out = append(out, candidate{sh: sh, class: class})
	}
	var rest []candidate
	for i, sh := range c.shards {
		if !inOwners[sh] && aliveFn(i) {
			rest = append(rest, candidate{sh: sh, class: routeSpill})
		}
	}
	sort.SliceStable(rest, func(a, b int) bool {
		return rest[a].sh.inflight.Load() < rest[b].sh.inflight.Load()
	})
	return append(out, rest...)
}

// Sample routes one request: hash the engine-pool key onto the ring,
// then try candidates in order until one streams the ensemble.
// Pre-stream failures simply move to the next candidate; a shard that
// dies after delivering lines is failed over transparently by
// re-issuing the request to the next candidate with ResumeFrom set to
// the cursor of the last delivered line — determinism makes the
// replacement's suffix bit-identical, so the client sees one unbroken
// stream. Only when MaxAttempts shards have failed does the stream
// terminate with an in-band error line.
func (c *Coordinator) Sample(ctx context.Context, req *wire.SampleRequest, emit func(wire.Line) error) error {
	key, err := service.PoolKey(req)
	if err != nil {
		return err
	}
	// Root span of the coordinated request (or a child, when an
	// upstream tier propagated a trace). Shard attempts hang off it and
	// carry the trace to the shards over the wire header.
	ctx, span := c.tm.trc.StartSpan(ctx, "coordinator.route")
	span.SetAttr("key", fmt.Sprintf("%016x", key))
	start := time.Now()
	err = c.sample(ctx, req, emit, key)
	if err != nil {
		span.SetAttr("error", err.Error())
	}
	span.End()
	level := slog.LevelInfo
	if err != nil && ctx.Err() == nil && !errors.Is(err, service.ErrBadRequest) {
		level = slog.LevelWarn
	}
	c.tm.log.LogAttrs(ctx, level, "coordinated request",
		slog.String("trace", telemetry.TraceIDString(ctx)),
		slog.String("key", fmt.Sprintf("%016x", key)),
		slog.Int("samples", req.Samples),
		slog.Duration("duration", time.Since(start)),
		slog.Bool("ok", err == nil))
	return err
}

func (c *Coordinator) sample(ctx context.Context, req *wire.SampleRequest, emit func(wire.Line) error, key uint64) error {
	traceID := telemetry.TraceIDString(ctx)
	samples := req.Samples
	if samples <= 0 {
		samples = 1
	}
	base := req.ResumeFrom
	cursor := base

	seq, hot := c.noteKey(key)
	cands := c.candidates(key, seq-1, hot)
	if len(cands) == 0 {
		c.failed.Add(1)
		return &service.BackendError{Backend: c.cfg.ID, Op: "route", Err: errors.New("no live shards")}
	}

	attempts := 0
	var lastErr error
	lastShard := cands[0].sh.id
	for _, cand := range cands {
		if attempts >= c.cfg.MaxAttempts {
			break
		}
		sh := cand.sh
		if attempts > 0 && !sh.brk.available() {
			// Tripped since the candidate list was computed (possibly by
			// this very request's previous attempt).
			continue
		}
		attempts++
		if cursor > base {
			// Re-issuing mid-stream: the replacement shard fast-forwards
			// its chain to the cursor; the client never notices. The
			// splice is its own (instant) span so the trace records
			// where the stream changed shards, and it is logged with
			// the trace ID.
			c.midstreamFailovers.Add(1)
			_, sspan := c.tm.trc.StartSpan(ctx, "coordinator.splice")
			sspan.SetAttr("from", lastShard)
			sspan.SetAttr("to", sh.id)
			sspan.SetInt("cursor", int64(cursor))
			sspan.End()
			c.tm.log.Warn("mid-stream failover",
				slog.String("trace", traceID),
				slog.String("from", lastShard),
				slog.String("to", sh.id),
				slog.Int("cursor", cursor))
		}
		creq := *req
		creq.ResumeFrom = cursor

		var held *wire.Line
		var emitFailed error
		sh.requests.Add(1)
		sh.inflight.Add(1)
		// The attempt span's context carries the trace to the shard:
		// RemoteBackend stamps it into the wire header, the shard joins
		// it, and every line the shard streams back carries the same
		// trace ID — one coherent trace across the failover.
		attemptCtx, aspan := c.tm.trc.StartSpan(ctx, "shard.attempt")
		aspan.SetAttr("shard", sh.id)
		aspan.SetInt("resume_from", int64(cursor))
		err := sh.backend.Sample(attemptCtx, &creq, func(ln wire.Line) error {
			if ln.Error != "" {
				// Hold the shard's in-band terminator back: if failover
				// succeeds the client must never see it; if the failure
				// is genuinely terminal it is re-emitted below.
				cp := ln
				held = &cp
				return nil
			}
			if ln.Stats != nil && ln.Stats.Backend == "" {
				ln.Stats.Backend = sh.id
			}
			if ln.Stats != nil && ln.Stats.TraceID == "" {
				// A shard without telemetry streamed this line; stamp
				// the coordinator's trace so the stream stays coherent.
				ln.Stats.TraceID = traceID
			}
			if err := emit(ln); err != nil {
				emitFailed = err
				return err
			}
			c.samples.Add(1)
			if nc := ln.Cursor; nc > cursor {
				cursor = nc
			} else if ln.Index+1 > cursor {
				cursor = ln.Index + 1
			}
			return nil
		})
		sh.inflight.Add(-1)
		if err != nil {
			aspan.SetAttr("error", err.Error())
		}
		aspan.End()
		if err == nil {
			if sh.brk.onSuccess() {
				c.revivals.Add(1)
			}
			switch cand.class {
			case routeOwner:
				c.routedOwner.Add(1)
			case routeReplica:
				c.routedReplica.Add(1)
			default:
				c.routedSpill.Add(1)
			}
			return nil
		}
		lastErr = err
		lastShard = sh.id

		// The consumer's own failure, its cancellation, and a request
		// every shard rejects identically are terminal — no candidate
		// fixes them.
		if emitFailed != nil || ctx.Err() != nil || errors.Is(err, service.ErrBadRequest) {
			c.failed.Add(1)
			return err
		}
		var se *service.StreamError
		switch {
		case errors.As(err, &se):
			sh.errors.Add(1)
			if se.Line.Code == "canceled" || se.Line.Code == "deadline" {
				// The request's own timeout_ms budget expired mid-chain;
				// a fresh shard would burn the same budget again. Forward
				// the held terminator and give up.
				c.failed.Add(1)
				if held != nil {
					c.midstream.Add(1)
					if held.TraceID == "" {
						held.TraceID = traceID
					}
					emit(*held)
				}
				return err
			}
			// The shard reported an internal failure in-band ("backend",
			// "closed", "internal"): treat it like a transport death and
			// fail over from the cursor.
			if sh.brk.onFailure() {
				c.evictions.Add(1)
			}
		case errors.Is(err, service.ErrBackend):
			// Transport failure — refused dial, reset mid-body: trip
			// toward eviction; keys re-hash to live successors.
			sh.errors.Add(1)
			if sh.brk.onFailure() {
				c.evictions.Add(1)
			}
		case errors.Is(err, service.ErrOverloaded), errors.Is(err, service.ErrShuttingDown):
			// Skew or drain on the owner: spill without touching the
			// breaker — refusing load is not failing it.
			sh.errors.Add(1)
		default:
			// Unclassified failure (backend bug): count it and try the
			// next candidate anyway.
			sh.errors.Add(1)
		}
		if cursor >= samples {
			// The failure landed between the last sample line and the
			// clean EOF: the ensemble was fully delivered.
			return nil
		}
	}

	c.failed.Add(1)
	if cursor > base {
		// Every candidate is gone and the client holds a prefix:
		// terminate in-band, exactly as a single daemon's Service does.
		c.midstream.Add(1)
		emit(wire.Line{
			Index:   cursor,
			Cursor:  cursor,
			Error:   fmt.Sprintf("backend %s failed mid-stream: %v", lastShard, lastErr),
			Code:    "backend",
			TraceID: traceID,
		})
	}
	return lastErr
}

// Health reports "ok" while at least one shard is live.
func (c *Coordinator) Health(context.Context) (wire.Health, error) {
	status := "unavailable"
	for _, sh := range c.shards {
		if sh.brk.available() {
			status = "ok"
			break
		}
	}
	return wire.Health{Status: status, UptimeMS: time.Since(c.start).Milliseconds()}, nil
}

// Metrics exports the coordinator's routing counters and per-shard
// placement view. Shard-local detail (pool hit rates, queue depths)
// stays on the shards' own /v1/metrics endpoints.
func (c *Coordinator) Metrics(context.Context) (wire.Metrics, error) {
	cm := &wire.ClusterMetrics{
		RoutedOwner:        c.routedOwner.Load(),
		RoutedReplica:      c.routedReplica.Load(),
		RoutedSpill:        c.routedSpill.Load(),
		MidstreamFailovers: c.midstreamFailovers.Load(),
		MidstreamFailures:  c.midstream.Load(),
		Evictions:          c.evictions.Load(),
		Revivals:           c.revivals.Load(),
	}
	var inflight int64
	for _, sh := range c.shards {
		infl := sh.inflight.Load()
		inflight += infl
		cm.Shards = append(cm.Shards, wire.ShardMetrics{
			ID:       sh.id,
			URL:      sh.backend.URL(),
			Alive:    sh.brk.available(),
			Breaker:  sh.brk.stateName(),
			Inflight: infl,
			Requests: sh.requests.Load(),
			Errors:   sh.errors.Load(),
		})
	}
	c.hotMu.Lock()
	for key, n := range c.hotKeys {
		if n >= c.cfg.HotThreshold {
			cm.HotKeys = append(cm.HotKeys, wire.KeyHits{Key: fmt.Sprintf("%016x", key), Hits: n})
		}
	}
	c.hotMu.Unlock()
	sort.Slice(cm.HotKeys, func(i, j int) bool {
		if cm.HotKeys[i].Hits != cm.HotKeys[j].Hits {
			return cm.HotKeys[i].Hits > cm.HotKeys[j].Hits
		}
		return cm.HotKeys[i].Key < cm.HotKeys[j].Key
	})
	if len(cm.HotKeys) > 8 {
		cm.HotKeys = cm.HotKeys[:8]
	}
	routed := cm.RoutedOwner + cm.RoutedReplica + cm.RoutedSpill
	return wire.Metrics{
		Backend:          c.cfg.ID,
		RequestsTotal:    routed,
		RequestsInflight: inflight,
		RequestsFailed:   c.failed.Load(),
		SamplesTotal:     c.samples.Load(),
		UptimeMS:         time.Since(c.start).Milliseconds(),
		StartedAtMS:      c.start.UnixMilli(),
		Cluster:          cm,
	}, nil
}
