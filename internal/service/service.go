package service

import (
	"context"
	"errors"
	"log/slog"
	"runtime"
	"sync"
	"time"

	"gesmc"
	"gesmc/internal/telemetry"
	"gesmc/wire"
)

// Config sizes the service. Zero values select the defaults.
type Config struct {
	// ID is the backend identity stamped on every streamed line's
	// Stats.Backend and on Metrics.Backend, so clients (and the
	// cluster coordinator) can observe which shard served them. Empty
	// leaves the fields unset.
	ID string
	// WorkerBudget is the global parallelism bound: the sum of the
	// Workers of all running jobs never exceeds it. Default:
	// GOMAXPROCS.
	WorkerBudget int
	// QueueLimit bounds the admission queue; arrivals beyond it are
	// rejected with ErrOverloaded. Default: 64.
	QueueLimit int
	// PoolCapacity bounds the engine pool (idle compiled samplers kept
	// for reuse); 0 disables pooling. Default: 8. Use NoPooling for an
	// explicit zero.
	PoolCapacity int
	// NoPooling disables the engine pool (every request compiles and
	// closes its own sampler); it exists because PoolCapacity == 0
	// means "default".
	NoPooling bool
	// NoTelemetry disables tracing, latency histograms, and the
	// Prometheus exposition (GET /v1/metrics keeps its JSON view).
	// Telemetry is on by default — the benched overhead budget is ≤3%
	// ns/switch — so the knob exists for benchmark baselines and
	// minimal embeddings.
	NoTelemetry bool
	// Logger receives structured request logs (one line per request,
	// with trace IDs). Nil discards them.
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.WorkerBudget <= 0 {
		c.WorkerBudget = runtime.GOMAXPROCS(0)
	}
	if c.QueueLimit <= 0 {
		c.QueueLimit = 64
	}
	if c.PoolCapacity <= 0 {
		c.PoolCapacity = 8
	}
	if c.NoPooling {
		c.PoolCapacity = 0
	}
	return c
}

// Service executes sampling jobs: validation, admission against the
// worker budget, engine checkout (pool hit) or compilation (miss),
// NDJSON-friendly streaming via an emit callback, and check-in. It is
// safe for concurrent use; Shutdown drains in-flight jobs and closes
// every pooled worker gang.
type Service struct {
	cfg   Config
	sched *scheduler
	pool  *enginePool
	met   serviceMetrics
	tm    *svcTelemetry

	mu       sync.Mutex
	closing  bool
	inflight int
	drained  chan struct{}
}

// New builds a Service from cfg (zero value = defaults).
func New(cfg Config) *Service {
	cfg = cfg.withDefaults()
	s := &Service{
		cfg:     cfg,
		sched:   newScheduler(cfg.WorkerBudget, cfg.QueueLimit),
		pool:    newEnginePool(cfg.PoolCapacity),
		met:     serviceMetrics{start: time.Now()},
		tm:      newSvcTelemetry(!cfg.NoTelemetry, cfg.Logger),
		drained: make(chan struct{}),
	}
	s.registerFuncMetrics()
	return s
}

// begin registers an in-flight job, refusing new work once Shutdown
// has started.
func (s *Service) begin() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closing {
		return ErrShuttingDown
	}
	s.inflight++
	return nil
}

func (s *Service) end() {
	s.mu.Lock()
	s.inflight--
	if s.closing && s.inflight == 0 {
		close(s.drained)
	}
	s.mu.Unlock()
}

// errCode classifies a terminal error for the wire Code field.
func errCode(err error) string {
	switch {
	case errors.Is(err, context.Canceled):
		return "canceled"
	case errors.Is(err, context.DeadlineExceeded):
		return "deadline"
	case errors.Is(err, gesmc.ErrClosed):
		return "closed"
	case errors.Is(err, ErrBadRequest):
		return "bad_request"
	case errors.Is(err, ErrOverloaded):
		return "overloaded"
	case errors.Is(err, ErrShuttingDown):
		return "shutting_down"
	case errors.Is(err, ErrBackend):
		return "backend"
	default:
		return "internal"
	}
}

// Sample runs one job: it validates req, waits for req.Workers tokens
// of the global budget (FIFO, bounded queue), obtains an engine from
// the pool or compiles one, and streams req.Samples ensemble draws
// through emit as they are produced — emit is called once per sample
// with at most one sample buffered, so a slow consumer backpressures
// the chain instead of accumulating the ensemble in memory.
//
// A nil return means the full ensemble was delivered. On a terminal
// error after the first delivered sample, Sample additionally emits a
// final error Line (best effort) so stream consumers see the
// termination in-band. The engine is returned to the pool in every
// case — cancellation stops chains at superstep boundaries, leaving
// the sampler valid for the next request.
func (s *Service) Sample(ctx context.Context, req *Request, emit func(wire.Line) error) error {
	if err := s.begin(); err != nil {
		s.met.requestsRejected.Add(1)
		return err
	}
	defer s.end()

	if err := req.Validate(); err != nil {
		s.met.requestsFailed.Add(1)
		return err
	}
	if req.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, req.Timeout)
		defer cancel()
	}

	// Root span: extends a joined upstream trace (coordinator→shard
	// header) or starts a fresh one. Its trace ID is stamped into every
	// streamed line.
	ctx, span := s.tm.trc.StartSpan(ctx, "service.sample")
	span.SetAttr("algorithm", req.Algorithm.String())
	span.SetInt("samples", int64(req.Samples))
	start := time.Now()
	err := s.sample(ctx, req, emit, telemetry.TraceIDString(ctx))
	dur := time.Since(start)
	s.tm.requestDur.Observe(dur.Seconds())
	if err != nil {
		span.SetAttr("error", errCode(err))
	}
	span.End()
	s.tm.log.LogAttrs(ctx, requestLogLevel(err), "sample request",
		slog.String("trace", telemetry.TraceIDString(ctx)),
		slog.String("backend", s.cfg.ID),
		slog.String("algorithm", req.Algorithm.String()),
		slog.Int("samples", req.Samples),
		slog.Int("resume_from", req.ResumeFrom),
		slog.Duration("duration", dur),
		slog.String("code", errCodeOrOK(err)))
	return err
}

// requestLogLevel maps a request outcome to its log level: client-side
// outcomes (success, cancellation, bad request) log at Info, server
// faults at Warn.
func requestLogLevel(err error) slog.Level {
	switch {
	case err == nil, errors.Is(err, context.Canceled),
		errors.Is(err, context.DeadlineExceeded), errors.Is(err, ErrBadRequest):
		return slog.LevelInfo
	default:
		return slog.LevelWarn
	}
}

func errCodeOrOK(err error) string {
	if err == nil {
		return "ok"
	}
	return errCode(err)
}

// sample runs the admitted, validated request; traceID is stamped into
// every streamed line.
func (s *Service) sample(ctx context.Context, req *Request, emit func(wire.Line) error, traceID string) error {
	// Admission: FIFO behind earlier jobs, bounded waiting line.
	_, qspan := s.tm.trc.StartSpan(ctx, "queue.wait")
	qstart := time.Now()
	if err := s.sched.acquire(ctx, req.Workers); err != nil {
		qspan.End()
		if errors.Is(err, ErrOverloaded) {
			s.met.requestsRejected.Add(1)
		} else {
			s.met.requestsFailed.Add(1)
		}
		return err
	}
	qspan.End()
	s.tm.queueWait.Observe(time.Since(qstart).Seconds())
	defer s.sched.release(req.Workers)
	s.met.requestsTotal.Add(1)
	s.met.requestsInflight.Add(1)
	defer s.met.requestsInflight.Add(-1)

	// Engine: pool hit skips target realization and sampler
	// compilation entirely.
	key := req.engineKey()
	sampler, hit := s.pool.checkout(key)
	_, cospan := s.tm.trc.StartSpan(ctx, "pool.checkout")
	if hit {
		cospan.SetAttr("outcome", "hit")
	} else {
		cospan.SetAttr("outcome", "miss")
	}
	cospan.End()
	if hit && req.ResumeFrom > 0 {
		// A resumed stream must be the canonical chain suffix, so the
		// pooled engine has to fast-forward to the resume point. A
		// chain that already overshot it (it served a longer stream)
		// cannot rewind — return it and compile a fresh chain below.
		_, ffspan := s.tm.trc.StartSpan(ctx, "pool.fast_forward")
		ffspan.SetInt("to", int64(req.ResumeFrom))
		s.tm.fastForwards.Inc()
		_, err := sampler.FastForwardTo(ctx, req.ResumeFrom)
		ffspan.End()
		if err != nil {
			s.pool.checkin(key, sampler)
			if !errors.Is(err, gesmc.ErrResumeBehind) {
				// Cancellation mid-fast-forward: the chain stopped at a
				// superstep boundary and stays poolable.
				s.met.requestsFailed.Add(1)
				return resumeError(err)
			}
			sampler, hit = nil, false
		}
	}
	if !hit {
		_, cspan := s.tm.trc.StartSpan(ctx, "engine.compile")
		target, err := req.buildTarget()
		if err != nil {
			cspan.End()
			s.met.requestsFailed.Add(1)
			return err
		}
		sampler, err = gesmc.NewSampler(target, req.samplerOptions()...)
		cspan.End()
		if err != nil {
			s.met.requestsFailed.Add(1)
			if errors.Is(err, gesmc.ErrExactUnsupported) {
				// The typed degradation path of the exact tier: a 400
				// naming the knob and the fallback, never a silent
				// reroute to MCMC.
				return &RequestError{Field: "uniformity",
					Reason: err.Error() + `; retry with uniformity "mcmc"`}
			}
			return &RequestError{Field: "options", Reason: err.Error()}
		}
		if req.ResumeFrom > 0 {
			// Fresh chain: burn-in + ResumeFrom·thinning supersteps
			// reconstruct the stream position deterministically.
			_, ffspan := s.tm.trc.StartSpan(ctx, "pool.fast_forward")
			ffspan.SetInt("to", int64(req.ResumeFrom))
			_, err := sampler.FastForwardTo(ctx, req.ResumeFrom)
			ffspan.End()
			if err != nil {
				s.pool.checkin(key, sampler)
				s.met.requestsFailed.Add(1)
				return resumeError(err)
			}
		}
	}
	defer s.pool.checkin(key, sampler)

	// Stream. The derived cancel tears the producing goroutine down
	// when the consumer fails mid-stream; the range always runs to
	// channel close, which is the producer's exit — only then may the
	// sampler go back into the pool (it is not safe for concurrent
	// use, and the producer advances it).
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var terminal error
	delivered := 0
	resume := req.ResumeFrom
	_, stspan := s.tm.trc.StartSpan(ctx, "engine.stream")
	for smp := range sampler.Ensemble(cctx, req.Samples-resume) {
		if terminal != nil {
			continue // draining after a terminal error
		}
		if smp.Err != nil {
			terminal = smp.Err
			// In-band error marker, but only mid-stream: a failure
			// before the first sample surfaces as the return error, so
			// the HTTP layer can still send a real status code. Cursor
			// carries the index of the sample that failed — resuming
			// there retries it.
			if delivered > 0 {
				idx := smp.Index + resume
				emit(wire.Line{Index: idx, Cursor: idx, Error: smp.Err.Error(),
					Code: errCode(smp.Err), TraceID: traceID})
			}
			continue
		}
		s.met.observeSample(smp.Stats.Supersteps, smp.Stats.Attempted)
		s.tm.sampleDur.Observe(smp.Stats.Duration.Seconds())
		s.tm.firstRound.Observe(smp.Stats.FirstRoundTime.Seconds())
		s.tm.laterRounds.Observe(smp.Stats.LaterRoundsTime.Seconds())
		s.tm.exactRestarts.Add(smp.Stats.Restarts)
		ln := wire.FromSample(smp)
		// Index is absolute within the requested ensemble; a resumed
		// stream numbers its lines as the suffix of the original.
		ln.Index += resume
		ln.Cursor = ln.Index + 1
		if ln.Stats != nil {
			ln.Stats.TraceID = traceID
		}
		if s.cfg.ID != "" && ln.Stats != nil {
			ln.Stats.Backend = s.cfg.ID
		}
		if err := emit(ln); err != nil {
			terminal = err
			cancel()
			continue
		}
		delivered++
	}
	stspan.SetInt("delivered", int64(delivered))
	stspan.End()
	if terminal != nil {
		s.met.requestsFailed.Add(1)
	}
	return terminal
}

// resumeError maps a fast-forward failure to the request's fault when
// the resume point is unaddressable (burn_in + resume_from·thinning
// overflows): a 400 naming resume_from rather than an internal error.
func resumeError(err error) error {
	if errors.Is(err, gesmc.ErrInvalidCount) {
		return &RequestError{Field: "resume_from", Reason: err.Error()}
	}
	return err
}

// Metrics snapshots the service counters.
func (s *Service) Metrics() wire.Metrics {
	m := s.met.snapshot(s.sched, s.pool)
	m.Backend = s.cfg.ID
	return m
}

// Health reports liveness ("ok", or "draining" once Shutdown started).
func (s *Service) Health() wire.Health {
	s.mu.Lock()
	closing := s.closing
	s.mu.Unlock()
	status := "ok"
	if closing {
		status = "draining"
	}
	return wire.Health{Status: status, UptimeMS: time.Since(s.met.start).Milliseconds()}
}

// Shutdown stops admitting jobs, waits for in-flight jobs to finish
// (or ctx to expire), then closes every pooled sampler, parking all
// persistent worker gangs. It is idempotent; concurrent calls share
// the drain.
func (s *Service) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.closing {
		s.closing = true
		if s.inflight == 0 {
			close(s.drained)
		}
	}
	s.mu.Unlock()

	var err error
	select {
	case <-s.drained:
	case <-ctx.Done():
		err = ctx.Err()
	}
	s.pool.close()
	return err
}
