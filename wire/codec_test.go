package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"math"
	"math/rand/v2"
	"reflect"
	"testing"
	"testing/iotest"
)

// checkEncode asserts that AppendLine writes exactly json.Marshal(ln)
// plus '\n' after the bytes already in the buffer, fails where
// json.Marshal fails, and leaves the buffer unchanged when it does.
func checkEncode(t *testing.T, ln *Line) []byte {
	t.Helper()
	const prefix = "prefix"
	want, werr := json.Marshal(ln)
	got, gerr := AppendLine([]byte(prefix), ln)
	if (werr != nil) != (gerr != nil) {
		t.Fatalf("AppendLine error %v, json.Marshal error %v for %+v", gerr, werr, ln)
	}
	if werr != nil {
		if string(got) != prefix {
			t.Fatalf("failed AppendLine changed the buffer: %q", got)
		}
		return nil
	}
	if string(got) != prefix+string(want)+"\n" {
		t.Fatalf("AppendLine differs from json.Marshal:\n got %q\nwant %q", got[len(prefix):], want)
	}
	return got[len(prefix):]
}

// checkDecode asserts that DecodeLines yields exactly what
// json.Unmarshal yields on each non-blank line of data, and fails at
// the first line where json.Unmarshal fails.
func checkDecode(t *testing.T, data []byte) {
	t.Helper()
	var want []Line
	wantErr := false
	for _, b := range bytes.Split(data, []byte{'\n'}) {
		if len(bytes.Trim(b, " \t\r")) == 0 {
			continue
		}
		var ln Line
		if err := json.Unmarshal(b, &ln); err != nil {
			wantErr = true
			break
		}
		want = append(want, ln)
	}
	var got []Line
	err := DecodeLines(bytes.NewReader(data), func(ln Line) error {
		got = append(got, ln)
		return nil
	})
	if (err != nil) != wantErr {
		t.Fatalf("DecodeLines error %v, json.Unmarshal failed: %v, on %q", err, wantErr, data)
	}
	if len(got) != len(want) {
		t.Fatalf("DecodeLines yielded %d lines, json.Unmarshal %d, on %q", len(got), len(want), data)
	}
	for i := range got {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("line %d: DecodeLines yielded %+v, json.Unmarshal %+v, on %q", i, got[i], want[i], data)
		}
	}
}

// lineFromBytes builds a Line straight from arbitrary bytes: header
// integers and node ids from 4-byte words, strings from the raw bytes
// (invalid UTF-8 included), and a Stats float from an 8-byte word (NaN
// and ±Inf included).
func lineFromBytes(data []byte) *Line {
	word := func(i int) uint32 {
		var w [4]byte
		copy(w[:], data[min(i, len(data)):])
		return binary.LittleEndian.Uint32(w[:])
	}
	flags := word(0)
	ln := &Line{Index: int(int32(word(4))), Directed: flags&1 != 0}
	if flags&2 != 0 {
		ln.Cursor = int(int32(word(8)))
	}
	if flags&4 != 0 {
		ln.Nodes = int(word(12))
	}
	if flags&8 != 0 {
		for i := 16; i+8 <= len(data); i += 8 {
			ln.Edges = append(ln.Edges, [2]uint32{word(i), word(i + 4)})
		}
	}
	s := string(data)
	if flags&16 != 0 {
		ln.Error = s
	}
	if flags&32 != 0 {
		ln.Code = s[len(s)/2:]
	}
	if flags&64 != 0 {
		ln.TraceID = s[:len(s)/2]
	}
	if flags&128 != 0 {
		ln.Stats = &Stats{
			Algorithm:  s,
			Supersteps: int(word(12)),
			AvgRounds:  math.Float64frombits(uint64(word(4))<<32 | uint64(word(8))),
			TraceID:    s[len(s)/3:],
		}
	}
	return ln
}

func FuzzLineCodec(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecode(t, data)
		// Every decodable line, and a line built from the raw bytes,
		// must encode as json.Marshal does and decode back as
		// json.Unmarshal does.
		_ = DecodeLines(bytes.NewReader(data), func(ln Line) error {
			checkDecode(t, checkEncode(t, &ln))
			return nil
		})
		checkDecode(t, checkEncode(t, lineFromBytes(data)))
	})
}

// filledRequest returns a request with every field set, the state a
// reused SampleRequest is in when DecodeRequest decodes into it.
func filledRequest() SampleRequest {
	return SampleRequest{
		Degrees: []int{9, 9}, OutDegrees: []int{8}, InDegrees: []int{8}, BipartiteLeft: []int{7},
		BipartiteRight: []int{7}, Edges: [][2]uint32{{6, 6}}, Nodes: 5, Directed: true,
		Algorithm: "a", Uniformity: "u", Workers: 4, Seed: 3, Samples: 2, BurnIn: 1, Thinning: 1,
		SwapsPerEdge: 0.5, TimeoutMS: 9, ResumeFrom: 1, Connected: true, ForbiddenEdges: [][2]uint32{{1, 2}},
	}
}

// checkDecodeRequest asserts that DecodeRequest yields exactly what
// json.Unmarshal yields on b, into a zero request and into a filled
// one, fails where json.Unmarshal fails, and leaves b as it was.
func checkDecodeRequest(t *testing.T, b []byte) {
	t.Helper()
	orig := bytes.Clone(b)
	for _, start := range []func() SampleRequest{func() SampleRequest { return SampleRequest{} }, filledRequest} {
		want, got := start(), start()
		werr := json.Unmarshal(b, &want)
		gerr := DecodeRequest(b, &got)
		if !bytes.Equal(b, orig) {
			t.Fatalf("DecodeRequest changed its input %q to %q", orig, b)
		}
		if (werr != nil) != (gerr != nil) {
			t.Fatalf("DecodeRequest error %v, json.Unmarshal error %v, on %q", gerr, werr, b)
		}
		if werr == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("DecodeRequest yielded %+v, json.Unmarshal %+v, on %q", got, want, b)
		}
	}
}

// canonicalRequests are requests whose json.Marshal form takes
// DecodeRequest's fast path: every target array alone and together,
// the tail fields, and integers at the parser's limits.
func canonicalRequests() []SampleRequest {
	return []SampleRequest{
		{Degrees: []int{3, 3, 2, 2, 2, 1, 1}},
		{Degrees: []int{1, 1}, Samples: 1, Seed: math.MaxUint64, Algorithm: "GlobalCurveball", Thinning: 1, Workers: 2},
		{OutDegrees: []int{1, 0}, InDegrees: []int{0, 1}, SwapsPerEdge: 2.5, TimeoutMS: 100},
		{BipartiteLeft: []int{2, 1}, BipartiteRight: []int{1, 1, 1}, Uniformity: "mcmc", ResumeFrom: 3, Samples: 5},
		{Edges: [][2]uint32{{0, 1}, {1, 2}, {0, math.MaxUint32}}, Nodes: 7, Directed: true},
		{Edges: [][2]uint32{{0, 1}}, Connected: true, ForbiddenEdges: [][2]uint32{{2, 3}, {4, 5}}},
		{Degrees: []int{999999999, -999999999, 0, -1}, OutDegrees: []int{5}, InDegrees: []int{5},
			BipartiteLeft: []int{1}, BipartiteRight: []int{1}, Edges: [][2]uint32{{9, 10}}, BurnIn: 8},
	}
}

func TestDecodeRequestFastPath(t *testing.T) {
	for _, req := range canonicalRequests() {
		b, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		var got SampleRequest
		if !decodeRequestFast(b, &got) || !reflect.DeepEqual(got, req) {
			t.Fatalf("fast path on %s: got %+v, want %+v", b, got, req)
		}
		checkDecodeRequest(t, b)
	}
}

// TestDecodeRequestMatchesEncodingJSON pins DecodeRequest to
// json.Unmarshal on the inputs that must leave the fast path, or that
// it must refuse.
func TestDecodeRequestMatchesEncodingJSON(t *testing.T) {
	for _, body := range []string{
		``,
		`{}`,
		`null`,
		`[]`,
		`{"degrees":[1,1]}`,
		`{"degrees":[1,1]} `,
		"{\"degrees\":[1,1]}\n\t\r ",
		`{"degrees":[1,1],"samples":1}{"samples":1000}`,
		`{"degrees":[1,1],"samples":1}garbage`,
		`{"degrees":[1,1]}garbage`,
		`{"degrees":[1,1]}}`,
		`{"degrees":[1,1],}`,
		`{"degrees":[1,1],"samples":1,}`,
		`{"degrees":[1,1] ,"samples":1}`,
		`{"degrees":[1,1], "samples":1}`,
		` {"degrees":[1,1]}`,
		`{ "degrees":[1,1]}`,
		`{"degrees":[1, 1]}`,
		`{"degrees":[]}`,
		`{"degrees":null}`,
		`{"degrees":[1,1],"degrees":[2,2]}`,
		`{"degrees":[1,1],"Degrees":[2,2]}`,
		`{"degrees":[1,1],"DEGREES":null}`,
		`{"degrees":[1,1],"degreeſ":[4]}`,
		`{"degrees":[1,1],"degrees":[4]}`,
		`{"degrees":[1,1],"edges":null}`,
		`{"degrees":[1,1],"EDGES":[[1,2]]}`,
		`{"out_degrees":[1],"degrees":[1,1]}`,
		`{"in_degrees":[1],"out_degrees":[1]}`,
		`{"degrees":[1.0,1]}`,
		`{"degrees":[1e0,1]}`,
		`{"degrees":[01,1]}`,
		`{"degrees":[-0,1]}`,
		`{"degrees":[-,1]}`,
		`{"degrees":[1234567890,1]}`,
		`{"degrees":[9223372036854775807]}`,
		`{"degrees":[9223372036854775808]}`,
		`{"degrees":[1,1],"samples":"1"}`,
		`{"degrees":[1,1],"samples":1.5}`,
		`{"degrees":[1,1],"unknown":{"a":[1,2]},"samples":3}`,
		`{"degrees":[1,1],"forbidden_edges":[[1,2]],"forbidden_edges":null}`,
		"{\"degrees\":[1,1],\"algorithm\":\"\xff\"}",
		`{"edges":[[0,1],[1,2]],"nodes":3}`,
		`{"edges":[[0,4294967295]]}`,
		`{"edges":[[0,4294967296]]}`,
		`{"edges":[[0,1,2]]}`,
		`{"edges":[[0]]}`,
		`{"edges":[[0,1]]]`,
		`{"edges":[[0,1],]}`,
		`{"edges":[[0,1]`,
		`{"degrees":[1,1`,
		`{"degrees":[1,1],"samples"`,
		`{"degrees":[1,1]`,
	} {
		checkDecodeRequest(t, []byte(body))
	}
}

// FuzzDecodeRequest checks DecodeRequest against json.Unmarshal on
// arbitrary bodies. Seeds live in testdata/fuzz/FuzzDecodeRequest (the
// service's FuzzFromWire bodies among them); the canonical requests are
// added here.
func FuzzDecodeRequest(f *testing.F) {
	for _, req := range canonicalRequests() {
		b, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkDecodeRequest(t, body)
	})
}

// randomLine draws a Line covering every field, node ids of every
// width, and strings that need escaping.
func randomLine(r *rand.Rand) *Line {
	strs := []string{"", "closed", "a<b>&c", "line\u2028sep", "q\"\\/\t", "\xff\xfe", "ü"}
	pick := func() string { return strs[r.IntN(len(strs))] }
	ln := &Line{Index: r.IntN(1000) - 10, Directed: r.IntN(2) == 0}
	if r.IntN(2) == 0 {
		ln.Cursor = ln.Index + 1
	}
	if r.IntN(4) > 0 {
		ln.Nodes = r.IntN(1 << 20)
	}
	for range r.IntN(20) {
		width := uint64(1) << r.IntN(33)
		ln.Edges = append(ln.Edges, [2]uint32{uint32(r.Uint64N(width)), uint32(r.Uint64N(width))})
	}
	if r.IntN(3) > 0 {
		ln.Stats = &Stats{
			Algorithm:  pick(),
			Uniformity: pick(),
			Supersteps: r.IntN(100),
			Attempted:  r.Int64(),
			AvgRounds:  r.Float64() * 10,
			DurationNS: r.Int64N(1e9),
			TraceID:    pick(),
		}
	}
	ln.Error, ln.Code, ln.TraceID = pick(), pick(), pick()
	return ln
}

func TestLineCodecMatchesEncodingJSON(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 2))
	var stream []byte
	for range 2000 {
		line := checkEncode(t, randomLine(r))
		checkDecode(t, line)
		stream = append(stream, line...)
	}
	checkDecode(t, stream)
}

// TestLineCodecDigitWidths encodes node ids at every decimal width
// boundary, 9-10 digits (the two-word path of putUint32) included,
// in both endpoints and next to each other, with and without a node
// count to size the buffer.
func TestLineCodecDigitWidths(t *testing.T) {
	for _, v := range []uint32{0, 9, 10, 99, 100, 9999, 10000, 99999999, 100000000, math.MaxUint32} {
		for _, nodes := range []int{0, 1} {
			ln := &Line{Index: 1, Nodes: nodes, Edges: [][2]uint32{{v, 0}, {0, v}, {v, v}, {v, 1}, {math.MaxUint32, v}}}
			checkDecode(t, checkEncode(t, ln))
		}
	}
}

func TestDecodeLinesTruncated(t *testing.T) {
	lines := []Line{
		{Index: 0, Cursor: 1, Nodes: 4, Edges: [][2]uint32{{0, 1}, {2, 3}}, Stats: &Stats{Algorithm: "ParGlobalES", TraceID: "00000000000000ab"}},
		{Index: 1, Cursor: 2, Nodes: 3, Directed: true, Edges: [][2]uint32{{0, 1}, {1, 0}}, Stats: &Stats{Algorithm: "ParES"}},
		{Index: 2, Cursor: 2, Error: "engine closed", Code: "closed", TraceID: "00000000000000ab"},
	}
	var stream []byte
	var starts []int
	for i := range lines {
		starts = append(starts, len(stream))
		stream = append(stream, checkEncode(t, &lines[i])...)
	}
	starts = append(starts, len(stream))

	for cut := 0; cut <= len(stream); cut++ {
		// complete counts the lines before the cut, a final line that
		// lacks only its '\n' included; inside marks a cut within a line.
		complete, inside := 0, false
		for k := range lines {
			switch end := starts[k+1]; {
			case cut >= end-1:
				complete = k + 1
			case cut > starts[k]:
				inside = true
			}
		}
		var got []Line
		err := DecodeLines(iotest.OneByteReader(bytes.NewReader(stream[:cut])), func(ln Line) error {
			got = append(got, ln)
			return nil
		})
		if inside != (err != nil) {
			t.Fatalf("cut at %d/%d: error %v, want error: %v", cut, len(stream), err, inside)
		}
		if len(got) != complete || (complete > 0 && !reflect.DeepEqual(got, lines[:complete])) {
			t.Fatalf("cut at %d/%d: got %d lines %+v, want the first %d", cut, len(stream), len(got), got, complete)
		}
	}

	// A transport error mid-line surfaces as is.
	broken := errors.New("connection reset")
	var n int
	err := DecodeLines(io.MultiReader(bytes.NewReader(stream[:starts[1]+5]), iotest.ErrReader(broken)),
		func(Line) error { n++; return nil })
	if !errors.Is(err, broken) || n != 1 {
		t.Fatalf("read error mid-line: %v after %d lines", err, n)
	}
}

// TestDecodeLinesBracketsInStrings: the fast path sizes a line's edge
// list by counting '[' over the rest of the line, so brackets inside
// the tail strings (error, code, trace_id, a stats backend) over-size
// only the capacity. Such lines still take the fast path and decode
// exactly as json.Unmarshal decodes them, alone and as one stream.
func TestDecodeLinesBracketsInStrings(t *testing.T) {
	strs := []string{"[", "]]", "[[", "[[0,1]]", "x]][[y", "[[[[[[[["}
	var stream []byte
	for i, s := range strs {
		for _, edges := range [][][2]uint32{nil, {{0, 1}}, {{0, 1}, {2, 3}, {1, 4}}} {
			ln := &Line{Index: i, Cursor: i + 1, Nodes: 5, Edges: edges, Error: s, Code: s, TraceID: s,
				Stats: &Stats{Algorithm: "GlobalCurveball", Supersteps: 1, Backend: s, TraceID: s}}
			line := checkEncode(t, ln)
			checkDecode(t, line)
			var got Line
			if !decodeFast(bytes.Clone(line[:len(line)-1]), &got) {
				t.Fatalf("canonical line %q left the fast path", line)
			}
			if !reflect.DeepEqual(got.Edges, edges) {
				t.Fatalf("fast path decoded edges %v, want %v, from %q", got.Edges, edges, line)
			}
			stream = append(stream, line...)
		}
	}
	checkDecode(t, stream)
	// A list closed only inside a later string is malformed.
	checkDecode(t, []byte(`{"index":0,"edges":[[0,1],[2,3],"error":"]]"}`+"\n"))
}

// TestDecodeLinesOwnsEdges pins that every callback gets its own Edges
// backing array: callers such as RemoteBackend keep lines past the
// callback.
func TestDecodeLinesOwnsEdges(t *testing.T) {
	var stream bytes.Buffer
	for i := range 3 {
		if err := EncodeLine(&stream, Line{Index: i, Nodes: 3, Edges: [][2]uint32{{0, uint32(i)}, {1, 2}}}); err != nil {
			t.Fatal(err)
		}
	}
	var kept []Line
	if err := DecodeLines(&stream, func(ln Line) error { kept = append(kept, ln); return nil }); err != nil {
		t.Fatal(err)
	}
	for i, ln := range kept {
		if len(ln.Edges) != 2 || ln.Edges[0] != [2]uint32{0, uint32(i)} {
			t.Fatalf("line %d edges overwritten: %v", i, ln.Edges)
		}
	}
}

// BenchmarkLineCodec times EncodeLine, AppendLine into a reused buffer
// (the server's path) and DecodeLines on one sample line of about
// 2.5·10⁴ edges over 2^14 nodes, and reports ns per edge; allocs/op
// is allocations per line.
func BenchmarkLineCodec(b *testing.B) {
	const n, m = 1 << 14, 25000
	r := rand.New(rand.NewPCG(7, 7))
	edges := make([][2]uint32, m)
	for i := range edges {
		u, v := r.Uint32N(n), r.Uint32N(n)
		edges[i] = [2]uint32{min(u, v), max(u, v)}
	}
	ln := Line{Index: 3, Cursor: 4, Nodes: n, Edges: edges, Stats: &Stats{
		Algorithm: "GlobalCurveball", Uniformity: "mcmc", Supersteps: 1, Attempted: m, Accepted: m / 2,
		AvgRounds: 1.25, MaxRounds: 3, DurationNS: 4500000, TraceID: "0123456789abcdef",
	}}
	perEdge := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*m), "ns/edge")
	}
	var line bytes.Buffer
	if err := EncodeLine(&line, ln); err != nil {
		b.Fatal(err)
	}

	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		var w bytes.Buffer
		for b.Loop() {
			w.Reset()
			if err := EncodeLine(&w, ln); err != nil {
				b.Fatal(err)
			}
		}
		perEdge(b)
	})
	b.Run("append", func(b *testing.B) {
		b.ReportAllocs()
		var buf []byte
		for b.Loop() {
			var err error
			if buf, err = AppendLine(buf[:0], &ln); err != nil {
				b.Fatal(err)
			}
		}
		perEdge(b)
	})
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			if err := DecodeLines(bytes.NewReader(line.Bytes()), func(Line) error { return nil }); err != nil {
				b.Fatal(err)
			}
		}
		perEdge(b)
	})
}
