package service

import (
	"context"
	"errors"
	"math/rand"
	"time"
)

// RetryPolicy drives RemoteBackend's automatic retry of transient
// failures. The zero value disables retries (MaxAttempts <= 1 means a
// single attempt); WithRetry applies the defaults for the rest.
type RetryPolicy struct {
	// MaxAttempts bounds the total number of request attempts,
	// including the first. <= 1 disables retries.
	MaxAttempts int
	// BaseDelay is the backoff before the first retry; each further
	// retry doubles it, capped at MaxDelay. Defaults: 50ms base, 2s
	// cap.
	BaseDelay time.Duration
	MaxDelay  time.Duration
	// Resume additionally re-issues a request after a mid-stream
	// transport cut, setting ResumeFrom to the cursor of the last
	// delivered line so the spliced stream is the exact continuation.
	// Only safe when the consumer tolerates a request being issued
	// more than once (the stream content is deterministic, so the
	// suffix is bit-identical — but the backend does the fast-forward
	// work again).
	Resume bool
}

// retryJitter scales a uniform random factor applied to each delay:
// the slept duration is d * (1 - retryJitter/2 + retryJitter*rand),
// spreading sleeps over [0.75d, 1.25d) to decorrelate retry storms
// across concurrent clients.
const retryJitter = 0.5

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.BaseDelay <= 0 {
		p.BaseDelay = 50 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 2 * time.Second
	}
	return p
}

// delay computes the backoff before retry attempt n (n = 1 for the
// first retry), with exponential growth, a cap, and jitter.
func (p RetryPolicy) delay(n int) time.Duration {
	d := p.BaseDelay << (n - 1)
	if d > p.MaxDelay || d <= 0 {
		d = p.MaxDelay
	}
	f := 1 - retryJitter/2 + retryJitter*rand.Float64()
	return time.Duration(float64(d) * f)
}

// sleep waits out the backoff, aborting early on context cancellation.
func (p RetryPolicy) sleep(ctx context.Context, n int) error {
	return sleepFor(ctx, p.delay(n))
}

// sleepFor waits out d, aborting early on context cancellation. Split
// from sleep so callers that observe the delay (backoff histograms)
// compute it once.
func sleepFor(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// Retryable classifies an error from a Backend call as safe to retry.
// Retryable failures are those where either no work was accepted by the
// backend (pre-first-byte transport failures) or the backend explicitly
// refused load it may accept later (overload, drain). Terminal
// failures — the caller's own cancellation, a request the backend will
// always reject, and streams whose terminator was already delivered —
// must never be retried.
func Retryable(err error) bool {
	switch {
	case err == nil:
		return false
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return false // the caller gave up; retrying fights the caller
	case errors.Is(err, ErrBadRequest):
		return false // deterministic rejection: identical on every retry
	case errors.Is(err, ErrOverloaded), errors.Is(err, ErrShuttingDown):
		return true // explicit backpressure: the backend may admit later
	}
	var se *StreamError
	if errors.As(err, &se) {
		return false // terminator already delivered in-band
	}
	var be *BackendError
	if errors.As(err, &be) {
		// "request" failed before the first byte arrived: connection
		// refused, reset during headers, DNS failure. Nothing was
		// delivered, so a retry is invisible to the consumer.
		// "stream" broke mid-body — re-issuing verbatim would replay
		// delivered lines; only the Resume path may recover it.
		return be.Op == "request"
	}
	return false
}
