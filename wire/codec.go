package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/bits"
	"slices"
	"strconv"
)

// lineTail holds the Line fields after Edges, with Line's tags. The
// codec hands this group to encoding/json in both directions, so float
// formatting and string escaping stay exactly encoding/json's.
type lineTail struct {
	Stats   *Stats `json:"stats,omitempty"`
	Error   string `json:"error,omitempty"`
	Code    string `json:"code,omitempty"`
	TraceID string `json:"trace_id,omitempty"`
}

// AppendLine appends the NDJSON encoding of ln to buf: exactly the
// bytes of json.Marshal(ln) followed by '\n'. The header fields and the
// edge list are written by hand; the trailing group (stats, error,
// code, trace_id) goes through encoding/json. On error buf is returned
// unchanged.
func AppendLine(buf []byte, ln *Line) ([]byte, error) {
	start := len(buf)
	buf = slices.Grow(buf, lineSizeHint(ln))
	buf = append(buf, `{"index":`...)
	buf = strconv.AppendInt(buf, int64(ln.Index), 10)
	if ln.Cursor != 0 {
		buf = append(buf, `,"cursor":`...)
		buf = strconv.AppendInt(buf, int64(ln.Cursor), 10)
	}
	if ln.Nodes != 0 {
		buf = append(buf, `,"nodes":`...)
		buf = strconv.AppendInt(buf, int64(ln.Nodes), 10)
	}
	if ln.Directed {
		buf = append(buf, `,"directed":true`...)
	}
	if len(ln.Edges) > 0 {
		buf = append(buf, `,"edges":`...)
		sep := byte('[')
		for _, e := range ln.Edges {
			// `[` or `,`, then `[u,v]`: at most 24 bytes, which also
			// covers putUint32's word stores.
			buf = slices.Grow(buf, 24)
			n := len(buf)
			b := buf[n : n+24]
			b[0], b[1] = sep, '['
			j := 2 + putUint32(b[2:], e[0])
			b[j] = ','
			j += 1 + putUint32(b[j+1:], e[1])
			b[j] = ']'
			buf = buf[:n+j+1]
			sep = ','
		}
		buf = append(buf, ']')
	}
	if ln.Stats == nil && ln.Error == "" && ln.Code == "" && ln.TraceID == "" {
		return append(buf, '}', '\n'), nil
	}
	tail, err := json.Marshal(lineTail{Stats: ln.Stats, Error: ln.Error, Code: ln.Code, TraceID: ln.TraceID})
	if err != nil {
		return buf[:start], err
	}
	// tail is a non-empty object; its '{' becomes the field separator.
	buf = append(buf, ',')
	buf = append(buf, tail[1:]...)
	return append(buf, '\n'), nil
}

// digitQuads[v] holds the four decimal digits of v < 10^4, leading
// zeros included, as ASCII in little-endian order: the most
// significant digit is the low byte.
var digitQuads = func() (t [10000]uint32) {
	for v := range t {
		for i, d := 0, v; i < 4; i, d = i+1, d/10 {
			t[v] |= uint32('0'+d%10) << (8 * (3 - i))
		}
	}
	return t
}()

// pow10 holds 10^0..10^9.
var pow10 = [10]uint32{1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9}

// putUint32 writes the decimal form of v, as strconv.AppendUint writes
// it, at the start of b and returns its length. It stores whole 8-byte
// words, so b must hold 8 bytes (10 when v >= 10^8), and bytes past
// the returned length are clobbered.
func putUint32(b []byte, v uint32) int {
	if v >= 1e8 {
		q := v / 1e8
		n := putUint32(b, q)
		binary.LittleEndian.PutUint64(b[n:], digits8(v-q*1e8))
		return n + 8
	}
	// v|1 has as many digits as v, and for x > 0, bits.Len32(x)·1233/4096
	// is floor(log10 x) or one less; the shift adds the missing one
	// without a branch.
	x := v | 1
	t := bits.Len32(x) * 1233 >> 12
	n := t + int((pow10[t]-1-x)>>31)
	binary.LittleEndian.PutUint64(b, digits8(v)>>(64-8*n))
	return n
}

// digits8 returns the eight decimal digits of v < 10^8, leading zeros
// included, as ASCII in little-endian order.
func digits8(v uint32) uint64 {
	hi := v / 10000
	return uint64(digitQuads[hi]) | uint64(digitQuads[v-hi*10000])<<32
}

// lineSizeHint bounds the encoded size of ln's header and edge list
// (plus room for a typical tail), taking Nodes as the bound on node
// ids when it is set.
func lineSizeHint(ln *Line) int {
	digits := 10 // math.MaxUint32
	if ln.Nodes > 0 {
		digits = len(strconv.Itoa(ln.Nodes))
	}
	return 512 + len(ln.Edges)*(2*digits+4) // "[a,b],"
}

// EncodeLine writes one NDJSON line: the bytes of AppendLine, in one
// Write.
func EncodeLine(w io.Writer, ln Line) error {
	buf, err := AppendLine(nil, &ln)
	if err != nil {
		return err
	}
	_, err = w.Write(buf)
	return err
}

// DecodeLines decodes an NDJSON stream, invoking fn per line until EOF,
// a malformed line, or a non-nil fn result. It is the client-side
// consumption loop of the CLI, the cluster coordinator's RemoteBackend
// and examples/service.
//
// Framing is strictly by line: every '\n'-terminated line holds one
// JSON object, and blank lines (spaces, tabs and '\r' only) are
// skipped. A value spanning lines is an error. A final line without a
// trailing '\n' is decoded like any other, so a stream cut inside a
// line fails with an error while a cut between lines delivers exactly
// the complete lines before it. Each line decodes to what
// json.Unmarshal yields on it, and fails where json.Unmarshal fails.
//
// Each fn call owns its Line: the Edges slice is freshly allocated per
// line and never reused.
func DecodeLines(r io.Reader, fn func(Line) error) error {
	lr := lineReader{r: r}
	for n := 1; ; n++ {
		b, err := lr.next()
		if err != nil {
			if err == io.EOF {
				return nil
			}
			return err
		}
		if isBlank(b) {
			continue
		}
		var ln Line
		if !decodeFast(b, &ln) {
			ln = Line{}
			if err := json.Unmarshal(b, &ln); err != nil {
				return fmt.Errorf("wire: line %d: %w", n, err)
			}
		}
		if err := fn(ln); err != nil {
			return err
		}
	}
}

// requestTail is SampleRequest with the six fields DecodeRequest
// parses itself shadowed by raw messages (the shallower field wins in
// encoding/json). Decoding the rest of a request into it sets every
// other field as json.Unmarshal would, and leaves a shadow non-nil for
// any key that folds to one of the six, even one whose value is null.
type requestTail struct {
	SampleRequest
	Degrees        json.RawMessage `json:"degrees"`
	OutDegrees     json.RawMessage `json:"out_degrees"`
	InDegrees      json.RawMessage `json:"in_degrees"`
	BipartiteLeft  json.RawMessage `json:"bipartite_left"`
	BipartiteRight json.RawMessage `json:"bipartite_right"`
	Edges          json.RawMessage `json:"edges"`
}

// requestArrays names the integer-array members of SampleRequest in
// field order, each with its opening bracket.
var requestArrays = [5]string{`"degrees":[`, `"out_degrees":[`, `"in_degrees":[`, `"bipartite_left":[`, `"bipartite_right":[`}

// DecodeRequest decodes a POST /v1/sample body into r. The result, and
// whether it fails, are those of json.Unmarshal(b, r) on every input:
// trailing data after the object is an error, unknown keys are
// ignored, and keys absent from b leave r's fields as they were.
//
// The canonical form json.Marshal writes is parsed directly: the
// target arrays (degrees, out_degrees, in_degrees, bipartite_left,
// bipartite_right, edges) in field order as plain decimals, then the
// rest of the object, which goes to encoding/json. Anything else —
// whitespace, floats, leading zeros, overflow, re-cased or duplicate
// keys — is decoded by json.Unmarshal whole. b is modified during the
// call and restored before it returns.
func DecodeRequest(b []byte, r *SampleRequest) error {
	if decodeRequestFast(b, r) {
		return nil
	}
	return json.Unmarshal(b, r)
}

// decodeRequestFast decodes b into r if b starts with the canonical
// form of at least one target array and the rest of the object decodes
// without touching any of the six; otherwise it reports false and
// sets no field of r.
func decodeRequestFast(b []byte, r *SampleRequest) bool {
	if len(b) == 0 || b[0] != '{' {
		return false
	}
	var ints [len(requestArrays)][]int
	var edges [][2]uint32
	i := 1
	for f, key := range requestArrays {
		if j, ok := skipMember(b, i, key); ok {
			if ints[f], i, ok = parseInts(b, j); !ok {
				return false
			}
		}
	}
	if j, ok := skipMember(b, i, `"edges":[`); ok {
		if edges, i, ok = parseEdges(b, j); !ok {
			return false
		}
	}
	if i == 1 {
		return false
	}
	tail := requestTail{SampleRequest: *r}
	switch rest := b[i:]; {
	case len(rest) > 0 && rest[0] == '}':
		if !isSpace(rest[1:]) {
			return false
		}
	case len(rest) < 2 || rest[0] != ',' || rest[1] != '"':
		return false
	default:
		// Decode `,"key":...}` as the object `{"key":...}`.
		rest[0] = '{'
		ok := json.Unmarshal(rest, &tail) == nil
		rest[0] = ','
		if !ok || tail.Degrees != nil || tail.OutDegrees != nil || tail.InDegrees != nil ||
			tail.BipartiteLeft != nil || tail.BipartiteRight != nil || tail.Edges != nil {
			return false
		}
	}
	*r = tail.SampleRequest
	for f, dst := range [...]*[]int{&r.Degrees, &r.OutDegrees, &r.InDegrees, &r.BipartiteLeft, &r.BipartiteRight} {
		if ints[f] != nil {
			*dst = ints[f]
		}
	}
	if edges != nil {
		r.Edges = edges
	}
	return true
}

// skipMember returns the offset after the object member prefix key at
// b[i:], preceded by a comma unless it is the object's first member
// (i == 1, just past the '{').
func skipMember(b []byte, i int, key string) (int, bool) {
	j := i
	if j > 1 {
		if j >= len(b) || b[j] != ',' {
			return i, false
		}
		j++
	}
	if j, ok := skipLit(b, j, key); ok {
		return j, true
	}
	return i, false
}

// isSpace reports whether b holds only JSON whitespace.
func isSpace(b []byte) bool {
	for _, c := range b {
		if c != ' ' && c != '\t' && c != '\r' && c != '\n' {
			return false
		}
	}
	return true
}

// lineReader splits a stream into lines. The slices it returns alias
// its buffer and are valid until the next call.
type lineReader struct {
	r    io.Reader
	buf  []byte
	off  int // start of the unreturned data in buf
	scan int // buf[off:scan] holds no '\n'
	err  error
}

// next returns the next line without its '\n'. At the end of the
// stream it returns a non-empty unterminated remainder as a last line,
// then io.EOF. A read error other than io.EOF discards the partial
// line and is returned as is.
func (lr *lineReader) next() ([]byte, error) {
	for {
		if i := bytes.IndexByte(lr.buf[lr.scan:], '\n'); i >= 0 {
			end := lr.scan + i
			line := lr.buf[lr.off:end]
			lr.off, lr.scan = end+1, end+1
			return line, nil
		}
		lr.scan = len(lr.buf)
		if lr.err != nil {
			if lr.err != io.EOF || lr.off == len(lr.buf) {
				return nil, lr.err
			}
			line := lr.buf[lr.off:]
			lr.off = len(lr.buf)
			return line, nil
		}
		if lr.off > 0 {
			n := copy(lr.buf, lr.buf[lr.off:])
			lr.buf, lr.scan, lr.off = lr.buf[:n], n, 0
		}
		if len(lr.buf) == cap(lr.buf) {
			lr.buf = slices.Grow(lr.buf, max(len(lr.buf), 4096))
		}
		n, err := lr.r.Read(lr.buf[len(lr.buf):cap(lr.buf)])
		lr.buf, lr.err = lr.buf[:len(lr.buf)+n], err
	}
}

// isBlank reports whether b holds only JSON whitespace other than '\n'.
func isBlank(b []byte) bool {
	for _, c := range b {
		if c != ' ' && c != '\t' && c != '\r' {
			return false
		}
	}
	return true
}

// decodeFast decodes b when it has the canonical form AppendLine
// writes: the header fields in Line's order, the edge list as plain
// decimal pairs, then a trailing group of stats/error/code/trace_id
// keys only. It reports false on anything else — whitespace, escapes,
// leading zeros, overflow, null, other keys — and the caller then
// decodes b with json.Unmarshal. b may be modified in place.
func decodeFast(b []byte, ln *Line) bool {
	i, ok := skipLit(b, 0, `{"index":`)
	if !ok {
		return false
	}
	if ln.Index, i, ok = parseInt(b, i); !ok {
		return false
	}
	if j, ok := skipLit(b, i, `,"cursor":`); ok {
		if ln.Cursor, i, ok = parseInt(b, j); !ok {
			return false
		}
	}
	if j, ok := skipLit(b, i, `,"nodes":`); ok {
		if ln.Nodes, i, ok = parseInt(b, j); !ok {
			return false
		}
	}
	if j, ok := skipLit(b, i, `,"directed":true`); ok {
		ln.Directed, i = true, j
	}
	if j, ok := skipLit(b, i, `,"edges":[`); ok {
		if ln.Edges, i, ok = parseEdges(b, j); !ok {
			return false
		}
	}
	rest := b[i:]
	switch {
	case len(rest) > 0 && rest[0] == '}':
		return isBlank(rest[1:])
	case len(rest) < 2 || rest[0] != ',' || rest[1] != '"':
		return false
	}
	// Decode `,"key":...}` as the object `{"key":...}`; any key but the
	// four tail fields (matched case-insensitively, as json.Unmarshal
	// matches them) fails the decode.
	rest[0] = '{'
	var t lineTail
	dec := json.NewDecoder(bytes.NewReader(rest))
	dec.DisallowUnknownFields()
	if dec.Decode(&t) != nil || !isBlank(rest[dec.InputOffset():]) {
		rest[0] = ','
		return false
	}
	ln.Stats, ln.Error, ln.Code, ln.TraceID = t.Stats, t.Error, t.Code, t.TraceID
	return true
}

// skipLit returns the offset after lit if b holds lit at i.
func skipLit(b []byte, i int, lit string) (int, bool) {
	if len(b)-i < len(lit) || string(b[i:i+len(lit)]) != lit {
		return i, false
	}
	return i + len(lit), true
}

// parseInt parses an optionally negative decimal of at most 9 digits
// (so it fits any int) without leading zeros at b[i:].
func parseInt(b []byte, i int) (int, int, bool) {
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	v, j, ok := parseUint(b, i, 9)
	if !ok {
		return 0, i, false
	}
	if neg {
		return -int(v), j, true
	}
	return int(v), j, true
}

// parseUint parses a decimal of 1 to maxDigits digits without leading
// zeros at b[i:].
func parseUint(b []byte, i, maxDigits int) (uint64, int, bool) {
	var v uint64
	j := i
	for ; j < len(b) && b[j]-'0' <= 9; j++ {
		v = v*10 + uint64(b[j]-'0') // wraps only past maxDigits
	}
	if j == i || j-i > maxDigits || (j-i > 1 && b[i] == '0') {
		return 0, i, false
	}
	return v, j, true
}

// parseInts parses a non-empty list of parseInt values up to and
// including the closing ']' at b[i:].
func parseInts(b []byte, i int) ([]int, int, bool) {
	// A canonical list holds no ']' before its end and one ',' between
	// values, so this is exact on canonical input.
	end := bytes.IndexByte(b[i:], ']')
	if end < 0 {
		return nil, i, false
	}
	vals := make([]int, 0, bytes.Count(b[i:i+end], []byte{','})+1)
	for {
		v, j, ok := parseInt(b, i)
		if !ok || j >= len(b) {
			return nil, i, false
		}
		vals = append(vals, v)
		switch b[j] {
		case ',':
			i = j + 1
		case ']':
			return vals, j + 1, true
		default:
			return nil, i, false
		}
	}
}

// parseEdges parses a non-empty list of [u,v] pairs of uint32 values up
// to and including the closing ']' at b[i:].
func parseEdges(b []byte, i int) ([][2]uint32, int, bool) {
	// A canonical list holds one '[' per edge, and nothing after it in
	// a canonical line holds another outside a string (no Stats field
	// is an array), so one count of the rest of b is exact on
	// canonical lines. A '[' inside a later string, or a request's
	// forbidden_edges, only over-sizes the capacity.
	edges := make([][2]uint32, 0, bytes.Count(b[i:], []byte{'['}))
	for {
		if i >= len(b) || b[i] != '[' {
			return nil, i, false
		}
		u, j, ok := parseUint(b, i+1, 10)
		if !ok || u > math.MaxUint32 || j >= len(b) || b[j] != ',' {
			return nil, i, false
		}
		v, k, ok := parseUint(b, j+1, 10)
		if !ok || v > math.MaxUint32 || k+1 >= len(b) || b[k] != ']' {
			return nil, i, false
		}
		edges = append(edges, [2]uint32{uint32(u), uint32(v)})
		switch b[k+1] {
		case ',':
			i = k + 2
		case ']':
			return edges, k + 2, true
		default:
			return nil, i, false
		}
	}
}
