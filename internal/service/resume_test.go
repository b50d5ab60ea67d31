package service

import (
	"context"
	"errors"
	"testing"

	"gesmc/wire"
)

// coldStream serves req on a fresh service (cold engine pool), so the
// stream is the canonical chain for (request, seed).
func coldStream(t *testing.T, req *wire.SampleRequest) []wire.Line {
	t.Helper()
	svc := New(Config{WorkerBudget: 4})
	defer svc.Shutdown(context.Background())
	lines, err := collect(NewLocalBackend(svc), req)
	if err != nil {
		t.Fatal(err)
	}
	return lines
}

// TestResumeSuffixIdentity is the resume acceptance gate: a stream
// resumed at index k is bit-identical to the suffix of the
// uninterrupted stream, for k at the start, middle, and end of the
// ensemble. This is what makes the coordinator's mid-stream failover
// invisible.
func TestResumeSuffixIdentity(t *testing.T) {
	base := wire.SampleRequest{Degrees: []int{4, 3, 3, 2, 2, 2, 1, 1}, Samples: 8, Seed: 11, Workers: 2}
	full := coldStream(t, &base)
	if len(full) != 8 {
		t.Fatalf("%d lines, want 8", len(full))
	}
	for i, ln := range full {
		if ln.Index != i || ln.Cursor != i+1 {
			t.Fatalf("line %d: index/cursor %d/%d", i, ln.Index, ln.Cursor)
		}
	}
	for _, k := range []int{1, 4, 7} {
		req := base
		req.ResumeFrom = k
		got := coldStream(t, &req)
		if err := sameSamples(got, full[k:]); err != nil {
			t.Fatalf("resume at %d is not the canonical suffix: %v", k, err)
		}
		if got[0].Cursor != k+1 {
			t.Fatalf("resume at %d: first cursor %d", k, got[0].Cursor)
		}
	}
}

// TestResumePooledFastForward: a pooled engine that has not yet
// reached the resume point rolls forward and serves the identical
// suffix; one that overshot it (ErrResumeBehind internally) is
// replaced by a fresh chain — either way the bytes match the
// uninterrupted stream.
func TestResumePooledFastForward(t *testing.T) {
	base := wire.SampleRequest{Degrees: []int{3, 2, 2, 1}, Samples: 6, Seed: 3}
	full := coldStream(t, &base)

	svc := New(Config{WorkerBudget: 4, PoolCapacity: 4})
	defer svc.Shutdown(context.Background())
	b := NewLocalBackend(svc)

	// Serve the prefix; the engine parks in the pool mid-chain.
	pre := base
	pre.Samples = 3
	got, err := collect(b, &pre)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameSamples(got, full[:3]); err != nil {
		t.Fatalf("prefix: %v", err)
	}

	// Resume exactly where the prefix stopped: the pooled engine fast-
	// forwards zero supersteps and continues the same chain.
	cont := base
	cont.ResumeFrom = 3
	got, err = collect(b, &cont)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameSamples(got, full[3:]); err != nil {
		t.Fatalf("pooled resume: %v", err)
	}
	pm := svc.Metrics()
	if pm.Pool.Hits == 0 {
		t.Fatalf("resume did not reuse the pooled engine: %+v", pm.Pool)
	}

	// Resume behind the pooled chain's position: the engine cannot
	// rewind, so a fresh chain serves the canonical suffix.
	back := base
	back.ResumeFrom = 1
	got, err = collect(b, &back)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameSamples(got, full[1:]); err != nil {
		t.Fatalf("resume behind pooled chain: %v", err)
	}
}

// TestResumeValidation: the cursor must address a sample inside the
// ensemble.
func TestResumeValidation(t *testing.T) {
	svc := New(Config{})
	defer svc.Shutdown(context.Background())
	b := NewLocalBackend(svc)
	for _, rf := range []int{-1, 5, 9} {
		req := wire.SampleRequest{Degrees: []int{2, 1, 1}, Samples: 5, Seed: 1, ResumeFrom: rf}
		if _, err := collect(b, &req); !errors.Is(err, ErrBadRequest) {
			t.Fatalf("resume_from=%d: err=%v, want ErrBadRequest", rf, err)
		}
	}
	// A resume point past the int range (burn_in + resume_from·thinning
	// overflows) is the request's fault on both the fresh-compile path
	// and, on the repeat, the pooled path.
	for try := 0; try < 2; try++ {
		req := wire.SampleRequest{Degrees: []int{2, 2, 2, 1, 1}, Samples: 1<<32 + 1, Seed: 1,
			Thinning: 1 << 32, ResumeFrom: 1 << 32}
		_, err := collect(b, &req)
		var re *RequestError
		if !errors.As(err, &re) || re.Field != "resume_from" {
			t.Fatalf("overflowing resume point, try %d: err=%v, want a resume_from RequestError", try, err)
		}
	}
}
