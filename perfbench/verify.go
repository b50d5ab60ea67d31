package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"

	"gesmc"
	"gesmc/wire"
)

// expect is what every sample line of one request must satisfy.
type expect struct {
	nodes      int
	directed   bool
	out        []int // degree of each node; out-degree for directed targets
	in         []int // in-degree of each node (directed targets only)
	connected  bool
	uniformity string // the tier the request asked for: "mcmc" or "exact"
}

// undirected expects samples realizing degrees on the given tier.
func undirected(degrees []int, tier string) *expect {
	return &expect{nodes: len(degrees), out: degrees, uniformity: tier}
}

// verifier checks delivered samples. It keeps its scratch between
// calls, so each goroutine uses its own.
type verifier struct {
	deg, in []int
	keys    []uint64
	stamps  []uint32
	stamp   uint32
	parent  []int32
}

// check verifies ln as the index-th line of its stream: a sample line
// (not an in-band error) with cursor index+1, the requested tier, and
// a simple graph realizing the expected degrees.
func (v *verifier) check(e *expect, ln *wire.Line, index int) error {
	if ln.Error != "" {
		return fmt.Errorf("line %d: in-band error %q (%s)", index, ln.Error, ln.Code)
	}
	if ln.Index != index || ln.Cursor != index+1 {
		return fmt.Errorf("line %d: index %d, cursor %d", index, ln.Index, ln.Cursor)
	}
	if ln.Stats == nil || ln.Stats.Uniformity != e.uniformity {
		got := "<no stats>"
		if ln.Stats != nil {
			got = ln.Stats.Uniformity
		}
		return fmt.Errorf("line %d: uniformity %q, requested %q", index, got, e.uniformity)
	}
	if err := v.checkGraph(e, ln.Nodes, ln.Directed, ln.Edges); err != nil {
		return fmt.Errorf("line %d: %w", index, err)
	}
	return nil
}

// checkGraph verifies the node count, the exact degree (or in/out)
// sequence, the absence of loops and multi-edges, and connectivity when
// requested.
func (v *verifier) checkGraph(e *expect, nodes int, directed bool, edges [][2]uint32) error {
	if nodes != e.nodes || directed != e.directed {
		return fmt.Errorf("%d nodes (directed %v), want %d (directed %v)", nodes, directed, e.nodes, e.directed)
	}
	v.deg = zeroed(v.deg, nodes)
	if directed {
		v.in = zeroed(v.in, nodes)
	}
	v.resetSet(len(edges))
	for _, ed := range edges {
		a, b := ed[0], ed[1]
		if a == b {
			return fmt.Errorf("loop at node %d", a)
		}
		if int(a) >= nodes || int(b) >= nodes {
			return fmt.Errorf("edge (%d, %d) out of range", a, b)
		}
		v.deg[a]++
		if directed {
			v.in[b]++
		} else {
			v.deg[b]++
			a, b = min(a, b), max(a, b)
		}
		if !v.insert(uint64(a)<<32 | uint64(b)) {
			return fmt.Errorf("multi-edge (%d, %d)", a, b)
		}
	}
	for i, d := range v.deg {
		if d != e.out[i] {
			return fmt.Errorf("node %d has degree %d, want %d", i, d, e.out[i])
		}
	}
	if directed {
		for i, d := range v.in {
			if d != e.in[i] {
				return fmt.Errorf("node %d has in-degree %d, want %d", i, d, e.in[i])
			}
		}
	}
	if e.connected && !v.connected(nodes, edges) {
		return fmt.Errorf("sample is not connected")
	}
	return nil
}

func zeroed(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// resetSet empties the edge set for m insertions. Slots carry a
// generation stamp, so emptying costs nothing.
func (v *verifier) resetSet(m int) {
	size := 16
	for size < 2*m {
		size <<= 1
	}
	if len(v.keys) < size {
		v.keys = make([]uint64, size)
		v.stamps = make([]uint32, size)
		v.stamp = 0
	}
	v.stamp++
	if v.stamp == 0 {
		clear(v.stamps)
		v.stamp = 1
	}
}

// insert adds key to the edge set and reports false if it was there.
func (v *verifier) insert(key uint64) bool {
	mask := uint64(len(v.keys) - 1)
	h := key * 0x9E3779B97F4A7C15
	for i := (h ^ h>>29) & mask; ; i = (i + 1) & mask {
		if v.stamps[i] != v.stamp {
			v.stamps[i], v.keys[i] = v.stamp, key
			return true
		}
		if v.keys[i] == key {
			return false
		}
	}
}

// connected reports whether the (underlying undirected) graph has a
// single component.
func (v *verifier) connected(nodes int, edges [][2]uint32) bool {
	if cap(v.parent) < nodes {
		v.parent = make([]int32, nodes)
	}
	p := v.parent[:nodes]
	for i := range p {
		p[i] = int32(i)
	}
	find := func(x int32) int32 {
		for p[x] != x {
			p[x] = p[p[x]]
			x = p[x]
		}
		return x
	}
	components := nodes
	for _, ed := range edges {
		if ra, rb := find(int32(ed[0])), find(int32(ed[1])); ra != rb {
			p[ra] = rb
			components--
		}
	}
	return components <= 1
}

// tally counts what one request delivered.
type tally struct {
	expected   int   // sample lines the request asked for
	lines      int   // lines received
	verified   int   // lines that passed every check
	edges      int64 // edges of verified lines
	tradeEdges int64 // edges × supersteps of verified GlobalCurveball lines
	exactDraws int64 // draws behind verified exact-tier lines
}

// line verifies one received line as the index-th of its stream and
// counts it; a line beyond the requested count fails.
func (t *tally) line(r *run, v *verifier, e *expect, ln *wire.Line, index int) {
	t.lines++
	err := v.check(e, ln, index)
	if err == nil && t.lines > t.expected {
		err = fmt.Errorf("line %d: more lines than the %d requested", index, t.expected)
	}
	if err != nil {
		r.fail(err)
		return
	}
	t.verified++
	t.edges += int64(len(ln.Edges))
	switch {
	case ln.Stats.Algorithm == gesmc.GlobalCurveball.String():
		t.tradeEdges += int64(len(ln.Edges)) * int64(ln.Stats.Supersteps)
	case ln.Stats.Uniformity == "exact":
		t.exactDraws += int64(ln.Stats.Supersteps)
	}
}

// sampleLine converts an in-process sample to the line the serving
// layer streams for it, which also carries the resume cursor.
func sampleLine(smp gesmc.Sample) wire.Line {
	ln := wire.FromSample(smp)
	ln.Cursor = ln.Index + 1
	return ln
}

// digest folds a stream into one value with stats stripped: the index,
// node count, direction and edge list of every line.
func digest(lines []wire.Line) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(x uint64) {
		binary.LittleEndian.PutUint64(b[:], x)
		h.Write(b[:])
	}
	for _, ln := range lines {
		put(uint64(ln.Index))
		put(uint64(ln.Nodes))
		if ln.Directed {
			put(1)
		} else {
			put(0)
		}
		put(uint64(len(ln.Edges)))
		for _, e := range ln.Edges {
			put(uint64(e[0])<<32 | uint64(e[1]))
		}
	}
	return h.Sum64()
}
