package main

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// tracer records the benchmark's own spans around each public call it
// makes on a traced request. Spans stay in memory and are written out
// when the run ends. A nil *tracer records nothing.
type tracer struct {
	t0    time.Time
	next  atomic.Uint64
	mu    sync.Mutex
	spans []span
}

// span is one timed call. The spans of one request share Trace, and
// Parent names the enclosing span (0 for the request's root).
type span struct {
	Trace  uint64 `json:"trace"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under parent; trace 0 starts a new trace.
func (t *tracer) begin(trace, parent uint64, name string) span {
	if t == nil {
		return span{}
	}
	id := t.next.Add(1)
	if trace == 0 {
		trace = id
	}
	return span{Trace: trace, ID: id, Parent: parent, Name: name, Start: time.Since(t.t0).Nanoseconds()}
}

// end closes s and keeps it.
func (t *tracer) end(s span) {
	if t == nil {
		return
	}
	s.End = time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// selfTimes sums each span name's self time in ms: the span's duration
// minus the part of it that its child spans cover.
func selfTimes(spans []span) map[string]float64 {
	children := make(map[uint64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]float64)
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, reach), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		out[s.Name] += float64(s.End-s.Start-covered) / 1e6
	}
	return out
}
