package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"gesmc/wire"
)

// collect runs one request through a Backend and returns the streamed
// lines plus the terminal error.
func collect(b Backend, req *wire.SampleRequest) ([]wire.Line, error) {
	var lines []wire.Line
	err := b.Sample(context.Background(), req, func(ln wire.Line) error {
		lines = append(lines, ln)
		return nil
	})
	return lines, err
}

// sameSamples compares the payload of two line streams: index, shape,
// and exact edge lists (Stats carry durations and backend identity, so
// they are excluded from bit-identity).
func sameSamples(a, b []wire.Line) error {
	if len(a) != len(b) {
		return fmt.Errorf("line counts %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Index != b[i].Index || a[i].Nodes != b[i].Nodes || a[i].Directed != b[i].Directed ||
			a[i].Error != b[i].Error || fmt.Sprint(a[i].Edges) != fmt.Sprint(b[i].Edges) {
			return fmt.Errorf("line %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
	return nil
}

// TestLocalRemoteParity is the first leg of the differential
// acceptance gate: the same seeded request served in-process
// (LocalBackend) and over the wire (RemoteBackend against a fresh
// daemon) yields bit-identical sample lines.
func TestLocalRemoteParity(t *testing.T) {
	req := &wire.SampleRequest{Degrees: []int{4, 3, 3, 2, 2, 2, 1, 1}, Samples: 5, Seed: 7, Workers: 2}

	svcLocal := New(Config{WorkerBudget: 4})
	defer svcLocal.Shutdown(context.Background())
	localLines, err := collect(NewLocalBackend(svcLocal), req)
	if err != nil {
		t.Fatal(err)
	}

	svcRemote := New(Config{ID: "shard-r", WorkerBudget: 4})
	ts := httptest.NewServer(NewHandler(svcRemote))
	defer ts.Close()
	defer svcRemote.Shutdown(context.Background())
	remoteLines, err := collect(NewRemoteBackend(ts.URL, nil), req)
	if err != nil {
		t.Fatal(err)
	}

	if err := sameSamples(localLines, remoteLines); err != nil {
		t.Fatalf("local vs remote: %v", err)
	}
	if len(remoteLines) != 5 {
		t.Fatalf("%d lines", len(remoteLines))
	}
	for i, ln := range remoteLines {
		if ln.Stats == nil || ln.Stats.Backend != "shard-r" {
			t.Fatalf("line %d: backend identity not stamped: %+v", i, ln.Stats)
		}
	}
}

// fakeDaemon serves /v1/healthz ok and delegates /v1/sample to the
// given handler — the scaffolding for protocol-edge tests.
func fakeDaemon(sample http.HandlerFunc) *httptest.Server {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sample", sample)
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(wire.Health{Status: "ok"})
	})
	return httptest.NewServer(mux)
}

func TestRemoteBackendTypedErrors(t *testing.T) {
	req := &wire.SampleRequest{Degrees: []int{2, 1, 1}, Samples: 1, Seed: 1}

	// A real daemon's 400 resurfaces as ErrBadRequest.
	svc := New(Config{WorkerBudget: 2})
	ts := httptest.NewServer(NewHandler(svc))
	defer ts.Close()
	defer svc.Shutdown(context.Background())
	if _, err := collect(NewRemoteBackend(ts.URL, nil), &wire.SampleRequest{Degrees: []int{3, 1}}); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("non-graphical remote: %v, want ErrBadRequest", err)
	}

	// Synthetic statuses map back to their sentinels.
	statuses := []struct {
		code int
		want error
	}{
		{http.StatusTooManyRequests, ErrOverloaded},
		{http.StatusServiceUnavailable, ErrShuttingDown},
		{http.StatusBadRequest, ErrBadRequest},
		{http.StatusInternalServerError, ErrBackend},
	}
	for _, c := range statuses {
		fake := fakeDaemon(func(w http.ResponseWriter, r *http.Request) {
			writeJSON(w, c.code, wire.Error{Error: "synthetic", Code: "x"})
		})
		_, err := collect(NewRemoteBackend(fake.URL, nil), req)
		fake.Close()
		if !errors.Is(err, c.want) {
			t.Fatalf("status %d: err=%v, want %v", c.code, err, c.want)
		}
	}

	// An unreachable peer is a transport failure.
	dead := fakeDaemon(func(w http.ResponseWriter, r *http.Request) {})
	dead.Close()
	if _, err := collect(NewRemoteBackend(dead.URL, nil), req); !errors.Is(err, ErrBackend) {
		t.Fatalf("unreachable: %v, want ErrBackend", err)
	}
}

// TestRemoteBackendMidStreamCut: a backend that dies after its first
// lines yields the delivered prefix plus a typed ErrBackend — the
// signal the coordinator turns into an in-band error line.
func TestRemoteBackendMidStreamCut(t *testing.T) {
	fake := fakeDaemon(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		enc := json.NewEncoder(w)
		for i := 0; i < 2; i++ {
			enc.Encode(wire.Line{Index: i, Nodes: 3, Edges: [][2]uint32{{0, 1}, {1, 2}}, Stats: &wire.Stats{}})
		}
		w.(http.Flusher).Flush()
		panic(http.ErrAbortHandler) // reset the connection mid-body
	})
	defer fake.Close()

	lines, err := collect(NewRemoteBackend(fake.URL, nil), &wire.SampleRequest{Degrees: []int{1, 1}, Samples: 5})
	if !errors.Is(err, ErrBackend) {
		t.Fatalf("err=%v, want ErrBackend", err)
	}
	if len(lines) != 2 {
		t.Fatalf("%d lines delivered before the cut, want 2", len(lines))
	}
}

// TestRemoteBackendInBandError: a backend-side in-band terminator is
// forwarded verbatim and reported as *StreamError, so a proxy knows
// not to append a second terminator.
func TestRemoteBackendInBandError(t *testing.T) {
	fake := fakeDaemon(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		enc := json.NewEncoder(w)
		enc.Encode(wire.Line{Index: 0, Nodes: 2, Edges: [][2]uint32{{0, 1}}, Stats: &wire.Stats{}})
		enc.Encode(wire.Line{Index: 1, Error: "engine exploded", Code: "internal"})
	})
	defer fake.Close()

	lines, err := collect(NewRemoteBackend(fake.URL, nil), &wire.SampleRequest{Degrees: []int{1, 1}, Samples: 2})
	var se *StreamError
	if !errors.As(err, &se) {
		t.Fatalf("err=%v, want *StreamError", err)
	}
	if se.Line.Error != "engine exploded" {
		t.Fatalf("stream error line: %+v", se.Line)
	}
	if len(lines) != 2 || lines[1].Error == "" {
		t.Fatalf("forwarded lines: %+v", lines)
	}
}

// TestBackendHandlerProxyChain stacks the HTTP layer on a
// RemoteBackend pointed at a real daemon: a two-hop proxy. Status
// codes and streams must round-trip unchanged — that is what lets
// coordinators stack transparently.
func TestBackendHandlerProxyChain(t *testing.T) {
	svc := New(Config{ID: "origin", WorkerBudget: 2})
	origin := httptest.NewServer(NewHandler(svc))
	defer origin.Close()
	defer svc.Shutdown(context.Background())

	proxy := httptest.NewServer(NewBackendHandler(NewRemoteBackend(origin.URL, nil)))
	defer proxy.Close()

	// Streaming round-trip through both hops.
	lines, err := collect(NewRemoteBackend(proxy.URL, nil), &wire.SampleRequest{Degrees: []int{3, 2, 2, 1}, Samples: 3, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) != 3 || lines[0].Stats == nil || lines[0].Stats.Backend != "origin" {
		t.Fatalf("proxied lines: %+v", lines)
	}
	// A 400 passes through with its code intact.
	resp, err := http.Post(proxy.URL+"/v1/sample", "application/json", jsonBody(t, wire.SampleRequest{Degrees: []int{3, 1}}))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("proxied status %d, want 400", resp.StatusCode)
	}
	// Health proxies too.
	hb := NewRemoteBackend(proxy.URL, nil)
	h, err := hb.Health(context.Background())
	if err != nil || h.Status != "ok" {
		t.Fatalf("proxied health %+v err %v", h, err)
	}
}

func jsonBody(t *testing.T, v any) io.Reader {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.NewReader(b)
}

// PoolKey is the cluster routing contract: stable for identical
// requests, sensitive to every engine-identity field, and typed on
// invalid requests.
func TestPoolKey(t *testing.T) {
	base := wire.SampleRequest{Degrees: []int{3, 2, 2, 1}, Samples: 4, Seed: 7, Workers: 2}
	k1, err := PoolKey(&base)
	if err != nil {
		t.Fatal(err)
	}
	same := base
	same.Samples = 9 // ensemble size is not part of the engine identity
	k2, err := PoolKey(&same)
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Fatal("ensemble size changed the pool key")
	}
	diff := base
	diff.Seed = 8
	k3, err := PoolKey(&diff)
	if err != nil {
		t.Fatal(err)
	}
	if k3 == k1 {
		t.Fatal("seed change kept the pool key")
	}
	if _, err := PoolKey(&wire.SampleRequest{}); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("empty request: %v, want ErrBadRequest", err)
	}
}

// TestPoolKeyPinned pins PoolKey digests: a cluster routes a request to
// the shard its digest hashes to, so a change of hashing would strand
// every pooled engine behind a rolling upgrade. One request per target
// kind; the last also covers forbidden-edge canonicalization.
func TestPoolKeyPinned(t *testing.T) {
	for _, tc := range []struct {
		name string
		wr   wire.SampleRequest
		want uint64
	}{
		{"degrees", wire.SampleRequest{Degrees: []int{3, 3, 2, 2, 2, 1, 1}, Seed: 7, Workers: 2, BurnIn: 5, Thinning: 3},
			0xf935ab23c0af4121},
		{"in/out degrees", wire.SampleRequest{OutDegrees: []int{2, 1, 1, 0}, InDegrees: []int{1, 1, 1, 1}, Seed: 11, SwapsPerEdge: 4},
			0x0610c06fcf504301},
		{"bipartite", wire.SampleRequest{BipartiteLeft: []int{2, 1}, BipartiteRight: []int{1, 1, 1}, Seed: 3, Algorithm: "GlobalCurveball"},
			0x14ffaa395f4791a4},
		{"edges+forbidden", wire.SampleRequest{Edges: [][2]uint32{{0, 1}, {1, 2}, {2, 3}, {3, 0}, {4, 5}}, Nodes: 7,
			ForbiddenEdges: [][2]uint32{{3, 1}, {0, 2}, {6, 5}}, Seed: 19, Algorithm: "SeqES"},
			0x4fdc5984e349d717},
	} {
		got, err := PoolKey(&tc.wr)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got != tc.want {
			t.Errorf("%s: PoolKey = %#016x, want %#016x", tc.name, got, tc.want)
		}
	}
}
