package core

import (
	"sort"

	"gesmc/internal/graph"
	"gesmc/internal/rng"
	"gesmc/internal/switching"
)

// adjListStepper is the sequential adjacency-list ES-MC baseline
// standing in for the external tools of Table 4 (see DESIGN.md):
// NetworKit-style (unsorted neighborhoods, linear-scan existence checks)
// when sorted is false, Gengraph-style (sorted neighborhoods,
// binary-search existence, shift-maintained order) when sorted is true.
// Both run the identical chain to SeqES, only on the slower data
// structure — which is exactly the comparison the paper's Table 4 makes.
type adjListStepper struct {
	m      int
	E      []graph.Edge
	src    rng.Source
	adj    [][]graph.Node
	sorted bool
}

func newAdjListStepper(g *graph.Graph, cfg Config, sorted bool) *adjListStepper {
	E := g.Edges()
	n := g.N()
	adj := make([][]graph.Node, n)
	deg := g.Degrees()
	for v := 0; v < n; v++ {
		adj[v] = make([]graph.Node, 0, deg[v])
	}
	for _, e := range E {
		adj[e.U()] = append(adj[e.U()], e.V())
		adj[e.V()] = append(adj[e.V()], e.U())
	}
	if sorted {
		for v := range adj {
			sort.Slice(adj[v], func(i, j int) bool { return adj[v][i] < adj[v][j] })
		}
	}
	return &adjListStepper{
		m: g.M(), E: E,
		src:    rng.NewMT19937(cfg.Seed),
		adj:    adj,
		sorted: sorted,
	}
}

func (s *adjListStepper) Step(st *switching.Stats) error {
	perStep := int64(s.m / 2)
	for a := int64(0); a < perStep; a++ {
		i, j := rng.TwoDistinct(s.src, s.m)
		e1, e2 := s.E[i], s.E[j]
		t3, t4 := graph.SwitchTargets(e1, e2, rng.Bool(s.src))
		if t3.IsLoop() || t4.IsLoop() || s.has(t3.U(), t3.V()) || s.has(t4.U(), t4.V()) {
			continue
		}
		s.remove(e1.U(), e1.V())
		s.remove(e1.V(), e1.U())
		s.remove(e2.U(), e2.V())
		s.remove(e2.V(), e2.U())
		s.insert(t3.U(), t3.V())
		s.insert(t3.V(), t3.U())
		s.insert(t4.U(), t4.V())
		s.insert(t4.V(), t4.U())
		s.E[i], s.E[j] = t3, t4
		st.Legal++
	}
	st.Attempted += perStep
	return nil
}

func (s *adjListStepper) has(u, v graph.Node) bool {
	// Query the smaller neighborhood.
	if len(s.adj[u]) > len(s.adj[v]) {
		u, v = v, u
	}
	nb := s.adj[u]
	if s.sorted {
		k := sort.Search(len(nb), func(i int) bool { return nb[i] >= v })
		return k < len(nb) && nb[k] == v
	}
	for _, w := range nb {
		if w == v {
			return true
		}
	}
	return false
}

func (s *adjListStepper) remove(u, v graph.Node) {
	nb := s.adj[u]
	if s.sorted {
		k := sort.Search(len(nb), func(i int) bool { return nb[i] >= v })
		copy(nb[k:], nb[k+1:])
		s.adj[u] = nb[:len(nb)-1]
		return
	}
	for i, w := range nb {
		if w == v {
			nb[i] = nb[len(nb)-1]
			s.adj[u] = nb[:len(nb)-1]
			return
		}
	}
	panic("core: adjacency removal of absent edge")
}

func (s *adjListStepper) insert(u, v graph.Node) {
	if s.sorted {
		nb := s.adj[u]
		k := sort.Search(len(nb), func(i int) bool { return nb[i] >= v })
		nb = append(nb, 0)
		copy(nb[k+1:], nb[k:])
		nb[k] = v
		s.adj[u] = nb
		return
	}
	s.adj[u] = append(s.adj[u], v)
}
