package service

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"gesmc"
	"gesmc/internal/gen"
	"gesmc/internal/rng"
	"gesmc/wire"
)

// TestServedAlgorithmSet: the wire serves exactly gesmc.Algorithms().
// The evaluation baselines (the inexact §5.1 NaiveParES and the
// adjacency-list stand-ins of Table 4) are not on the public enum, so
// FromWire refuses their names with a field-level error that lists the
// served set.
func TestServedAlgorithmSet(t *testing.T) {
	for _, name := range []string{"NaiveParES", "AdjListES", "AdjSortES"} {
		_, err := FromWire(&wire.SampleRequest{Degrees: []int{2, 2, 2, 2}, Algorithm: name, Workers: 2})
		var re *RequestError
		if !errors.As(err, &re) || !errors.Is(err, ErrBadRequest) || re.Field != "algorithm" {
			t.Fatalf("%s: err = %v, want a *RequestError on algorithm", name, err)
		}
		for _, a := range gesmc.Algorithms() {
			if !strings.Contains(re.Reason, a.String()) {
				t.Fatalf("%s: reason %q does not list served algorithm %s", name, re.Reason, a)
			}
		}
	}
	for _, a := range gesmc.Algorithms() {
		wr := &wire.SampleRequest{Degrees: []int{2, 2, 2, 2}, Algorithm: a.String(), Workers: 2}
		if _, err := FromWire(wr); err != nil {
			t.Fatalf("%s: FromWire: %v", a, err)
		}
		if _, err := PoolKey(wr); err != nil {
			t.Fatalf("%s: PoolKey: %v", a, err)
		}
	}
}

// FuzzFromWire explores the request contract on arbitrary JSON bodies,
// decoded with wire.DecodeRequest as the server decodes them: FromWire
// never panics, every refusal is a *RequestError wrapping
// ErrBadRequest, and every accepted request re-validates and has a
// pool key. Seeds live in testdata/fuzz/FuzzFromWire.
func FuzzFromWire(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		var wr wire.SampleRequest
		if wire.DecodeRequest(body, &wr) != nil {
			return
		}
		r, err := FromWire(&wr)
		if err != nil {
			var re *RequestError
			if !errors.As(err, &re) || !errors.Is(err, ErrBadRequest) {
				t.Fatalf("refusal %v (%T) is not a *RequestError wrapping ErrBadRequest", err, err)
			}
			return
		}
		if err := r.Validate(); err != nil {
			t.Fatalf("accepted request fails re-validation: %v", err)
		}
		if _, err := PoolKey(&wr); err != nil {
			t.Fatalf("accepted request has no pool key: %v", err)
		}
	})
}

// BenchmarkAdmitRequest times the admission of one repeat request for a
// pooled engine, everything the server does before its first
// superstep: decode the body, FromWire, the Validate that
// Service.Sample repeats, and the pool key. The body is the canonical
// json.Marshal form of a 2^14-node power-law target (degrees in
// [1, 128], γ = 2.2).
func BenchmarkAdmitRequest(b *testing.B) {
	deg := gen.PowerLawSequence(1<<14, 1, 1<<7, 2.2, rng.NewMT19937(1))
	body, err := json.Marshal(wire.SampleRequest{
		Degrees: deg, Algorithm: gesmc.GlobalCurveball.String(), Workers: 1, Seed: 1, Thinning: 1, Samples: 24,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	for b.Loop() {
		var wr wire.SampleRequest
		if err := wire.DecodeRequest(body, &wr); err != nil {
			b.Fatal(err)
		}
		r, err := FromWire(&wr)
		if err != nil {
			b.Fatal(err)
		}
		if err := r.Validate(); err != nil {
			b.Fatal(err)
		}
		_ = r.engineKey()
	}
}
