// Package switching implements the paper's parallel superstep
// discipline (Algorithm 1) exactly once, generically over the edge
// type, so that every switching chain in the repository — undirected
// (core), directed and bipartite (digraph), and the trade chains
// (curveball) — executes through a single kernel instead of hand-rolled
// copies.
//
// The kernel splits into two layers:
//
//   - RoundDriver (rounds.go): the chain-agnostic round loop of
//     Algorithm 1's phase 2 — undecided lists, per-worker delay
//     buffers, cache-line-padded legal counters, the pessimistic
//     worst-case scheduler of Theorems 2-3 (decisions published only at
//     round barriers), and the first-round/later-rounds timing split of
//     Figure 9. Any batch of items whose decisions may depend on
//     earlier items' decisions can run through it.
//
//   - Runner[E] (runner.go): the edge-switch instantiation — the
//     dependency-table phases (tuple and survivor registration, the
//     table's filter merge and chain link, round-based decisions that
//     probe only targets the filter cannot clear and write no edge, one
//     write-back of the accepted targets into the edge list after the
//     last round and, on set-backed runners, the leader's erase/insert
//     update of the edge set),
//     parameterized by the 64-bit edge encoding E.
//     graph.Edge (canonical undirected edges) and digraph.Arc
//     (orientation-preserving directed arcs) both instantiate it; the
//     only chain-specific ingredient is the Targets method computing
//     the two target edges of a switch.
//
// The curveball package plugs a third decision kind into the
// RoundDriver: disjoint-neighborhood trades whose per-superstep edge
// ownership discipline makes every trade decidable in the first round
// (see DESIGN.md §4).
//
// Above the kernel, Engine (engine.go) is the one resumable superstep
// loop every chain runs through: each chain is a Stepper plug-in, and
// Stats is the one counter type from the round driver to the public
// Sampler. GlobalStepper is the parallel G-ES-MC stepper and SeqStepper
// (seq.go) the sequential ES-MC/G-ES-MC stepper, each shared by the
// undirected and directed chains; ExecuteSequential is the one
// Definition-1 executor every differential test compares against.
package switching

// Switch is one edge switch σ = (i, j, g): two edge-list indices plus a
// direction bit (Definition 1). Directed chains ignore the direction
// bit: exchanging tails instead of heads yields the same unordered pair
// of target arcs.
type Switch struct {
	I, J uint32
	G    bool
}

// EdgeKind constrains the 64-bit edge encodings the kernel is generic
// over. Targets computes the two target edges of the switch (e, other,
// g) — the function τ of Definition 1 for undirected edges, the head
// exchange for directed arcs.
type EdgeKind[E any] interface {
	~uint64
	Targets(other E, g bool) (E, E)
}

// isLoop reports whether both endpoints of e coincide. Canonical edges
// and directed arcs pack their endpoints identically (32 bits each), so
// one implementation serves every instantiation.
func isLoop[E EdgeKind[E]](e E) bool {
	x := uint64(e)
	return uint32(x>>32) == uint32(x)
}
