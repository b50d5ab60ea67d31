package service

import (
	"errors"
	"strings"
	"testing"

	"gesmc"
	"gesmc/wire"
)

// TestNaiveParESRefused: the inexact §5.1 baseline is not served. It
// parses as an algorithm name but fails validation with a field-level
// error naming the reason, both from the wire and for a
// directly-constructed Request.
func TestNaiveParESRefused(t *testing.T) {
	check := func(name string, err error) {
		t.Helper()
		var re *RequestError
		if !errors.As(err, &re) || !errors.Is(err, ErrBadRequest) {
			t.Fatalf("%s: err=%v, want a *RequestError", name, err)
		}
		if re.Field != "algorithm" || !strings.Contains(re.Reason, "inexact") {
			t.Fatalf("%s: error %v does not name field algorithm and the reason", name, err)
		}
	}
	_, err := FromWire(&wire.SampleRequest{Degrees: []int{2, 2, 2, 2}, Algorithm: "NaiveParES", Workers: 2})
	check("wire", err)
	r, err := FromWire(&wire.SampleRequest{Degrees: []int{2, 2, 2, 2}, Algorithm: "ParES"})
	if err != nil {
		t.Fatal(err)
	}
	r.Algorithm = gesmc.NaiveParES
	check("direct", r.Validate())
}
