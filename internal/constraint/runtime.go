package constraint

import (
	"errors"

	"gesmc/internal/graph"
	"gesmc/internal/hashset"
	"gesmc/internal/rng"
	"gesmc/internal/switching"
)

// ErrDisconnected is returned by NewRuntime when the connectivity
// constraint is configured over a graph that is not connected: the
// constrained chain's state space is the connected realizations, and
// the start state must belong to it. core and digraph re-export it.
var ErrDisconnected = errors.New("constraint: connectivity requires a connected graph")

// ParStallSupersteps is the escape trigger of the parallel constrained
// chains: this many consecutive supersteps whose accepted switches
// were all rolled back by recertification mark the chain as stalled.
const ParStallSupersteps = 2

// Runtime is the compiled form of a Spec for one chain, generic over
// the edge encoding so the undirected (graph.Edge) and directed (Arc)
// chains share one implementation: the fused local veto, the
// connectivity tracker (nil without Connected), the escape graph ops,
// and the stall state. Ops must be bound to the chain's hashset.Set —
// a sequential chain's own set (Sequential) or the parallel runner's
// (BindRunner) — before the first ExecuteSequential or AfterSuperstep
// call.
type Runtime[E switching.EdgeKind[E]] struct {
	Veto    func(e1, e2, t3, t4 E) bool
	Tracker *Tracker
	Ops     GraphOps[E]

	stallLimit int
	stall      int
	lastLegal  int64
}

// NewRuntime compiles the spec against a target with n nodes and the
// given edge list, certifying the initial state when connectivity is
// required (ErrDisconnected otherwise).
func NewRuntime[E switching.EdgeKind[E]](spec *Spec, n int, edges []E) (*Runtime[E], error) {
	c := &Runtime[E]{stallLimit: spec.StallLimit()}
	if raw := spec.Veto(); raw != nil {
		c.Veto = func(e1, e2, t3, t4 E) bool {
			return raw(uint64(e1), uint64(e2), uint64(t3), uint64(t4))
		}
	}
	if spec.Connected {
		c.Tracker = NewTracker(n)
		if !Certify(c.Tracker, edges) {
			return nil, ErrDisconnected
		}
	}
	return c, nil
}

// ExecuteSequential executes the switches in order under the full
// constraint stack: the Definition-1 simplicity checks first, then the
// local veto, then (when connectivity is required) the certificate —
// the O(1) non-tree fast path when it can certify the erasure, the
// exact union-find recheck when a certificate tree edge is deleted.
// Connectivity rejections accumulate the stall counter; at the stall
// limit the chain attempts compound k-switch escapes.
func (c *Runtime[E]) ExecuteSequential(edges []E, switches []switching.Switch, src rng.Source, st *switching.Stats) {
	for _, sw := range switches {
		e1 := edges[sw.I]
		e2 := edges[sw.J]
		t3, t4 := e1.Targets(e2, sw.G)
		if isLoop(t3) || isLoop(t4) || t3 == e1 || t3 == e2 || t4 == e1 || t4 == e2 {
			continue
		}
		if c.Veto != nil && c.Veto(e1, e2, t3, t4) {
			st.Vetoed++
			continue
		}
		if c.Ops.Contains(t3) || c.Ops.Contains(t4) {
			continue
		}
		slow := false
		if c.Tracker != nil && !c.Tracker.FastErasable(uint64(e1), uint64(e2)) {
			if !CheckSwitch(c.Tracker, edges, int(sw.I), int(sw.J), t3, t4) {
				st.Vetoed++
				c.stall++
				if c.stall >= c.stallLimit {
					c.escape(edges, src, st)
				}
				continue
			}
			slow = true
		}
		c.Ops.Erase(e1)
		c.Ops.Erase(e2)
		c.Ops.Insert(t3)
		c.Ops.Insert(t4)
		edges[sw.I] = t3
		edges[sw.J] = t4
		st.Legal++
		if c.Tracker != nil {
			c.stall = 0
			if slow {
				// The deleted tree edge invalidated the forest;
				// re-certify over the committed state.
				Certify(c.Tracker, edges)
			}
		}
	}
}

// escape runs up to EscapeTries compound double-switch proposals
// through the bound graph ops, resetting the stall counter on success.
// The tracker is re-certified by the escape itself.
func (c *Runtime[E]) escape(edges []E, src rng.Source, st *switching.Stats) {
	attempts, moves := Escape(edges, c.Ops, c.Veto, c.Tracker, src, EscapeTries)
	st.EscapeAttempts += attempts
	st.EscapeMoves += moves
	if moves > 0 {
		c.stall = 0
	}
}

// BindRunner installs the local veto on a parallel chain's runner and,
// when connectivity is required, points the escape graph ops at its
// edge set (built here if the runner has none: rollbacks and escapes
// need edge membership between supersteps, which the dependency table
// does not keep). The ops run on a single goroutine between
// supersteps. A nil runtime leaves the runner unconstrained.
func (c *Runtime[E]) BindRunner(r *switching.Runner[E]) {
	if c == nil {
		return
	}
	r.Veto = c.Veto
	if c.Tracker == nil {
		return
	}
	r.EnsureSet()
	c.bind(r.Set)
}

// Sequential points the graph ops at a sequential chain's hash set and
// returns ExecuteSequential as the chain's executor, or nil when there
// is no runtime. A nil runtime's method value is a valid binder, so
// chains pass cons.Sequential whether or not a constraint is
// configured.
func (c *Runtime[E]) Sequential(S *hashset.Set) switching.SeqExecFunc[E] {
	if c == nil {
		return nil
	}
	c.bind(S)
	return c.ExecuteSequential
}

// bind points the graph ops at S, which stores every edge kind
// bit-cast to graph.Edge.
func (c *Runtime[E]) bind(S *hashset.Set) {
	c.Ops = GraphOps[E]{
		Contains: func(e E) bool { return S.Contains(graph.Edge(e)) },
		Insert:   func(e E) { S.Insert(graph.Edge(e)) },
		Erase:    func(e E) { S.Erase(graph.Edge(e)) },
	}
}

// After returns AfterSuperstep as a parallel stepper's hook, or nil
// when there is nothing to recertify (no runtime, or no connectivity
// requirement).
func (c *Runtime[E]) After() switching.AfterFunc[E] {
	if c == nil || c.Tracker == nil {
		return nil
	}
	return c.AfterSuperstep
}

// AfterSuperstep is the speculate-then-recertify step of the parallel
// constrained chains: recertify the superstep the runner just applied,
// roll back in reverse commit order if the certificate broke, and run
// escape moves when recertification has zeroed out ParStallSupersteps
// whole supersteps in a row.
func (c *Runtime[E]) AfterSuperstep(r *switching.Runner[E], src rng.Source, st *switching.Stats) {
	if c.Tracker == nil {
		return
	}
	rolled := Recertify(r, c.Tracker)
	if rolled > 0 && r.Stats.Legal == c.lastLegal {
		// Everything the superstep accepted was rolled back.
		c.stall++
		if c.stall >= ParStallSupersteps {
			c.escape(r.E, src, st)
		}
	} else if r.Stats.Legal > c.lastLegal {
		c.stall = 0
	}
	c.lastLegal = r.Stats.Legal
}
