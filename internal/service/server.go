package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strings"

	"gesmc/internal/faultinject"
	"gesmc/internal/telemetry"
	"gesmc/wire"
)

// maxRequestBody bounds POST bodies (64 MiB holds explicit edge lists
// of tens of millions of edges; degree-sequence requests are tiny).
const maxRequestBody = 64 << 20

// NewHandler wraps the service in its HTTP API:
//
//	POST /v1/sample   — stream an ensemble as NDJSON, one line per
//	                    sample, flushed as produced
//	GET  /v1/healthz  — liveness (503 while draining)
//	GET  /v1/metrics  — counters (JSON)
func NewHandler(svc *Service) http.Handler {
	return NewBackendHandler(NewLocalBackend(svc))
}

// Optional Backend capabilities, asserted by the handler: a backend
// with telemetry additionally serves Prometheus text on /v1/metrics
// (content-negotiated), span dumps on /v1/trace, and joins upstream
// traces propagated in the telemetry.TraceHeader.
type (
	// promBackend renders Prometheus text exposition; false means
	// telemetry is disabled and the JSON document should serve instead.
	promBackend interface {
		WritePrometheus(w io.Writer) bool
	}
	// traceBackend dumps one stored trace by %016x ID.
	traceBackend interface {
		TraceDump(id string) ([]telemetry.SpanDump, bool)
	}
	// tracerBackend exposes the tracer used to join propagated traces.
	tracerBackend interface {
		Tracer() *telemetry.Tracer
	}
)

// wantsPrometheus reports whether the Accept header asks for text
// exposition rather than the default JSON document.
func wantsPrometheus(accept string) bool {
	return strings.Contains(accept, "text/plain") || strings.Contains(accept, "openmetrics")
}

// NewBackendHandler serves the same HTTP API over any Backend: a
// LocalBackend for the plain daemon, a cluster coordinator for the
// front tier. The transport is identical either way — that is what
// lets coordinators stack in front of daemons transparently.
//
// Backends with telemetry get two extensions: GET /v1/metrics answers
// Prometheus text exposition when the request Accepts text/plain (the
// JSON body is unchanged and stays the default), and GET /v1/trace?id=
// dumps a request trace's spans.
func NewBackendHandler(b Backend) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sample", func(w http.ResponseWriter, r *http.Request) {
		handleSample(b, w, r)
	})
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		if f := faultinject.Lookup(faultinject.ServerHealth); f != nil {
			if f.Mode == faultinject.Stall && f.Spend() {
				faultinject.Sleep(r.Context(), f.Delay)
			}
			if f.Fail() {
				writeJSON(w, f.DenyStatus(), wire.Error{Error: "faultinject: health denied", Code: "internal"})
				return
			}
		}
		h, err := b.Health(r.Context())
		if err != nil {
			writeJSON(w, http.StatusServiceUnavailable, wire.Error{Error: err.Error(), Code: errCode(err)})
			return
		}
		code := http.StatusOK
		if h.Status != "ok" {
			code = http.StatusServiceUnavailable
		}
		writeJSON(w, code, h)
	})
	mux.HandleFunc("GET /v1/metrics", func(w http.ResponseWriter, r *http.Request) {
		if pb, ok := b.(promBackend); ok && wantsPrometheus(r.Header.Get("Accept")) {
			var buf strings.Builder
			if pb.WritePrometheus(&buf) {
				w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
				w.WriteHeader(http.StatusOK)
				io.WriteString(w, buf.String())
				return
			}
			// Telemetry disabled: fall through to the JSON document.
		}
		m, err := b.Metrics(r.Context())
		if err != nil {
			writeJSON(w, statusFor(err), wire.Error{Error: err.Error(), Code: errCode(err)})
			return
		}
		writeJSON(w, http.StatusOK, m)
	})
	mux.HandleFunc("GET /v1/trace", func(w http.ResponseWriter, r *http.Request) {
		tb, ok := b.(traceBackend)
		if !ok {
			writeJSON(w, http.StatusNotFound, wire.Error{Error: "tracing not supported by this backend", Code: "not_found"})
			return
		}
		id := r.URL.Query().Get("id")
		spans, ok := tb.TraceDump(id)
		if !ok {
			writeJSON(w, http.StatusNotFound, wire.Error{Error: "unknown, evicted, or malformed trace id", Code: "not_found"})
			return
		}
		writeJSON(w, http.StatusOK, struct {
			TraceID string               `json:"trace_id"`
			Spans   []telemetry.SpanDump `json:"spans"`
		}{TraceID: id, Spans: spans})
	})
	return mux
}

// statusFor maps service errors to HTTP statuses for failures that
// precede the first streamed line.
func statusFor(err error) int {
	switch {
	case errors.Is(err, ErrBadRequest):
		return http.StatusBadRequest
	case errors.Is(err, ErrOverloaded):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrShuttingDown):
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrBackend):
		// Every shard unreachable, or the one owning the key died
		// before its first line: the fault is behind this proxy tier.
		return http.StatusBadGateway
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		// The client's own cancellation or timeout_ms deadline, not a
		// server fault: a 5xx here would trip retry policies against
		// an already-loaded server.
		return http.StatusRequestTimeout
	default:
		return http.StatusInternalServerError
	}
}

// errInjectedCut is the sentinel an armed ServerStream Cut fault
// returns from the emit callback. It must travel back through
// Backend.Sample rather than panic inside emit: the Backend owns a
// producer goroutine and a pooled engine, and only its own return path
// tears those down safely. handleSample converts the sentinel into a
// connection abort once the Backend has cleaned up.
var errInjectedCut = errors.New("faultinject: stream cut")

func handleSample(b Backend, w http.ResponseWriter, r *http.Request) {
	if f := faultinject.Lookup(faultinject.ServerSample); f != nil {
		if f.Mode == faultinject.Stall && f.Spend() {
			faultinject.Sleep(r.Context(), f.Delay)
		}
		if f.Fail() {
			writeJSON(w, f.DenyStatus(), wire.Error{Error: "faultinject: sample denied", Code: "overloaded"})
			return
		}
	}

	// The body must be exactly one JSON object (json.Unmarshal
	// semantics): trailing data after it is refused, not ignored.
	var wreq wire.SampleRequest
	body, err := readBody(http.MaxBytesReader(w, r.Body, maxRequestBody), r.ContentLength)
	if err == nil {
		err = wire.DecodeRequest(body, &wreq)
	}
	if err != nil {
		writeJSON(w, http.StatusBadRequest, wire.Error{Error: "malformed JSON: " + err.Error(), Code: "bad_request"})
		return
	}

	// Join a propagated upstream trace (coordinator→shard) so the spans
	// this request produces — and the trace ID stamped into its lines —
	// extend the caller's trace instead of starting a fresh one.
	ctx := r.Context()
	if tb, ok := b.(tracerBackend); ok {
		if trace, parent, ok := telemetry.ParseTraceHeader(r.Header.Get(telemetry.TraceHeader)); ok {
			ctx = tb.Tracer().Join(ctx, trace, parent)
		}
	}

	// The NDJSON stream: headers go out with the first line, so
	// pre-stream failures (overload, infeasible degree sequence) still
	// get a proper status code. After the first line the status is
	// committed and terminal errors travel in-band as error lines
	// (the Backend emits them).
	cut := faultinject.Lookup(faultinject.ServerStream)
	flusher, _ := w.(http.Flusher)
	var buf []byte // one encode buffer for the whole stream
	streaming := false
	written := 0
	err = b.Sample(ctx, &wreq, func(ln wire.Line) error {
		if cut != nil && cut.Mode == faultinject.Cut && written >= cut.AfterLines && cut.Spend() {
			return errInjectedCut
		}
		if !streaming {
			w.Header().Set("Content-Type", "application/x-ndjson")
			w.WriteHeader(http.StatusOK)
			streaming = true
		}
		var err error
		if buf, err = wire.AppendLine(buf[:0], &ln); err != nil {
			return err
		}
		if _, err := w.Write(buf); err != nil {
			return err
		}
		if flusher != nil {
			flusher.Flush()
		}
		written++
		return nil
	})
	if errors.Is(err, errInjectedCut) {
		// The Backend has drained its producer and returned its engine;
		// now sever the connection without a clean EOF — the wire image
		// of a daemon killed mid-stream.
		panic(http.ErrAbortHandler)
	}
	if err != nil && !streaming {
		writeJSON(w, statusFor(err), wire.Error{Error: err.Error(), Code: errCode(err)})
	}
}

// readBody reads a whole request body, sized up front from its
// declared length when that is known and within maxRequestBody.
func readBody(r io.Reader, length int64) ([]byte, error) {
	var buf bytes.Buffer
	if length > 0 && length <= maxRequestBody {
		buf.Grow(int(length) + bytes.MinRead) // ReadFrom reads into MinRead free bytes
	}
	_, err := buf.ReadFrom(r)
	return buf.Bytes(), err
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}
