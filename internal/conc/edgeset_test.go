package conc

import (
	"fmt"
	"testing"

	"gesmc/internal/graph"
)

func edge(u, v uint32) graph.Edge { return graph.MakeEdge(u, v) }

// compact is the quiescent rebuild switching.Runner performs when
// NeedsCompact fires: clear every bucket, zero the shards, reinsert the
// live edges.
func compact(s *EdgeSet, live []graph.Edge) {
	s.ClearRange(0, s.Buckets())
	s.ResetCounts()
	s.BuildFrom(live)
}

func TestSentinelsAreNotEdges(t *testing.T) {
	// Buckets hold edges and arcs unpacked (high 32 bits one endpoint,
	// low 32 bits the other), so a sentinel could only collide with a
	// stored value whose halves differ. Both sentinels have equal
	// halves: they are loops in the edge and in the arc encoding, and
	// neither a simple edge nor a loop-free arc is ever stored.
	for _, b := range []uint64{bucketEmpty, bucketTombstone} {
		if uint32(b>>32) != uint32(b) || !graph.Edge(b).IsLoop() {
			t.Fatalf("sentinel %#x is not a loop", b)
		}
	}
	const top = graph.MaxNodes - 1
	for _, u := range []uint32{0, 1, top - 1, top, 1<<32 - 2} {
		for _, v := range []uint32{0, 1, top - 1, top, 1<<32 - 1} {
			if u == v {
				continue
			}
			arc := uint64(u)<<32 | uint64(v)
			for _, p := range []uint64{uint64(edge(u, v)), arc} {
				if p == bucketEmpty || p == bucketTombstone {
					t.Fatalf("{%d,%d} encodes to sentinel %#x", u, v, p)
				}
			}
		}
	}
}

// TestEdgeSetNearMaxNodes: edges whose endpoints sit at the top of the
// node range are stored, found and erased like any other.
func TestEdgeSetNearMaxNodes(t *testing.T) {
	const top = graph.MaxNodes - 1
	cases := []graph.Edge{
		edge(top-1, top),
		edge(0, top),
		edge(top-2, top),
		edge(1, top-1),
	}
	s := NewEdgeSet(len(cases), 1)
	for _, e := range cases {
		s.InsertUnique(e, 0)
	}
	for _, e := range cases {
		if !s.Contains(e) {
			t.Fatalf("missing %v", e)
		}
	}
	if s.Contains(edge(top-3, top)) {
		t.Fatal("contains an edge never inserted")
	}
	for _, e := range cases[:2] {
		s.EraseUnique(e, 0)
	}
	for i, e := range cases {
		if got, want := s.Contains(e), i >= 2; got != want {
			t.Fatalf("Contains(%v) = %v after erase, want %v", e, got, want)
		}
	}
	if s.Len() != 2 || s.Tombstones() != 2 {
		t.Fatalf("Len %d, Tombstones %d, want 2 and 2", s.Len(), s.Tombstones())
	}
}

func TestInsertContainsEraseUnique(t *testing.T) {
	s := NewEdgeSet(16, 1)
	e := edge(3, 4)
	if s.Contains(e) {
		t.Fatal("empty set contains edge")
	}
	s.InsertUnique(e, 0)
	if !s.Contains(e) || s.Len() != 1 {
		t.Fatal("insert failed")
	}
	s.EraseUnique(e, 0)
	if s.Contains(e) || s.Len() != 0 || s.Tombstones() != 1 {
		t.Fatal("erase failed")
	}
	// Reinsert reuses the tombstone.
	s.InsertUnique(e, 0)
	if !s.Contains(e) || s.Tombstones() != 0 {
		t.Fatal("tombstone not reused")
	}
}

func TestBuildFromParallel(t *testing.T) {
	var edges []graph.Edge
	for i := uint32(0); i < 5000; i++ {
		edges = append(edges, edge(i, i+10000))
	}
	s := NewEdgeSet(len(edges), 4)
	s.BuildFrom(edges)
	if s.Len() != len(edges) {
		t.Fatalf("Len = %d, want %d", s.Len(), len(edges))
	}
	for _, e := range edges {
		if !s.Contains(e) {
			t.Fatalf("missing %v", e)
		}
	}
}

func TestConcurrentDisjointInsertErase(t *testing.T) {
	// Workers operate on disjoint edges: the unique-path contract.
	const perWorker = 2000
	const workers = 8
	s := NewEdgeSet(perWorker*workers, workers)
	Run(workers, func(w int) {
		base := uint32(w * perWorker)
		for i := uint32(0); i < perWorker; i++ {
			s.InsertUnique(edge(base+i, base+i+1<<20), w)
		}
	})
	if s.Len() != perWorker*workers {
		t.Fatalf("Len = %d after parallel insert", s.Len())
	}
	Run(workers, func(w int) {
		base := uint32(w * perWorker)
		for i := uint32(0); i < perWorker; i += 2 {
			s.EraseUnique(edge(base+i, base+i+1<<20), w)
		}
	})
	if s.Len() != perWorker*workers/2 {
		t.Fatalf("Len = %d after parallel erase", s.Len())
	}
	count := 0
	s.ForEach(func(graph.Edge) { count++ })
	if count != s.Len() {
		t.Fatalf("ForEach visited %d, Len = %d", count, s.Len())
	}
}

func TestCompact(t *testing.T) {
	s := NewEdgeSet(256, 4)
	var live []graph.Edge
	for i := uint32(0); i < 200; i++ {
		e := edge(i, i+1000)
		s.InsertUnique(e, 0)
		if i%2 == 0 {
			s.EraseUnique(e, 0)
		} else {
			live = append(live, e)
		}
	}
	if s.Tombstones() == 0 {
		t.Fatal("expected tombstones before compaction")
	}
	compact(s, live)
	if s.Tombstones() != 0 || s.Len() != len(live) {
		t.Fatalf("after compact: %d tombstones, %d live", s.Tombstones(), s.Len())
	}
	for _, e := range live {
		if !s.Contains(e) {
			t.Fatalf("compact lost %v", e)
		}
	}
}

func TestNeedsCompactThreshold(t *testing.T) {
	s := NewEdgeSet(16, 1)
	if s.NeedsCompact() {
		t.Fatal("fresh set wants compaction")
	}
	// Insert/erase cycles accumulate tombstones (modulo incidental
	// reuse); the threshold must trigger well before the table fills.
	for i := uint32(0); i < uint32(s.Buckets()); i++ {
		e := edge(i, i+1<<20)
		s.InsertUnique(e, 0)
		s.EraseUnique(e, 0)
		if s.NeedsCompact() {
			return
		}
	}
	t.Fatalf("threshold never triggered: tombstones=%d of %d buckets",
		s.Tombstones(), s.Buckets())
}

// scanCounts counts live and tombstone buckets directly: the ground
// truth the sharded counters must sum to.
func scanCounts(s *EdgeSet) (live, tombstones int) {
	for _, b := range s.buckets {
		switch b {
		case bucketEmpty:
		case bucketTombstone:
			tombstones++
		default:
			live++
		}
	}
	return live, tombstones
}

// TestShardedCountsMatchBucketScan drives the unique path from a Pool
// gang (erase before insert, as in the kernel's apply phase, with
// tombstone reuse, and erasures counted by another worker than the
// insert), and checks at every quiescent point
// that the summed shards equal a bucket scan and that NeedsCompact
// answers exactly the scanned tombstones*4 > buckets threshold. A
// drifting tombstone count would compact too late and end in the
// probe-loop-exhausted panic.
func TestShardedCountsMatchBucketScan(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			const n = 1 << 12
			p := NewPool(workers)
			defer p.Close()
			s := NewEdgeSet(2*n, workers)
			s.SetSequential(workers == 1)
			sawBelow, compactions := false, 0
			check := func(stage string) {
				t.Helper()
				live, tomb := scanCounts(s)
				if s.Len() != live || s.Tombstones() != tomb {
					t.Fatalf("%s: Len %d / Tombstones %d, scan %d / %d",
						stage, s.Len(), s.Tombstones(), live, tomb)
				}
				want := tomb*4 > s.Buckets()
				if s.NeedsCompact() != want {
					t.Fatalf("%s: NeedsCompact %v with %d tombstones of %d buckets",
						stage, s.NeedsCompact(), tomb, s.Buckets())
				}
				sawBelow = sawBelow || (!want && tomb > 0)
			}
			// Item i of generation r; generations are disjoint.
			edgeOf := func(r, i int) graph.Edge { return edge(uint32(i), uint32(n+r*n+i)) }
			p.Blocks(n, func(w, lo, hi int) {
				for i := lo; i < hi; i++ {
					s.InsertUnique(edgeOf(0, i), w)
				}
			})
			check("build")

			// Round r starts with generation r live and ends with
			// generation r+1 live. The fused apply erases three
			// quarters of generation r, then inserts the first half
			// of r+1 and re-inserts a quarter of r (reusing
			// tombstones); the refill swaps in the rest.
			var round int
			plan := FusedPlan{Passes: []FusedPass{
				{N: n, Fn: func(w, lo, hi int) {
					for i := lo; i < hi; i++ {
						if i%4 != 0 {
							s.EraseUnique(edgeOf(round, i), w)
						}
					}
				}},
				{N: n / 2, Fn: func(w, lo, hi int) {
					for i := lo; i < hi; i++ {
						s.InsertUnique(edgeOf(round+1, i), w)
						if i%2 == 0 {
							s.InsertUnique(edgeOf(round, 2*i+1), w)
						}
					}
				}},
			}}
			extra := func(i int) graph.Edge { return edge(uint32(i), uint32(1<<27+round*n+i)) }
			var live []graph.Edge
			for round = 0; round < 12; round++ {
				p.Fused(&plan)
				check(fmt.Sprintf("round %d apply", round))

				// Every worker inserts its own disjoint extra edges
				// and erases half at once; after a barrier, each
				// worker erases the rest of its neighbour's, so
				// shards count erasures of edges they never inserted.
				p.Run(func(w int) {
					for i := w; i < n/4; i += workers {
						s.InsertUnique(extra(i), w)
						if i%2 == 0 {
							s.EraseUnique(extra(i), w)
						}
					}
				})
				check(fmt.Sprintf("round %d extras", round))
				p.Run(func(w int) {
					o := (w + 1) % workers
					for i := o; i < n/4; i += workers {
						if i%2 == 1 {
							s.EraseUnique(extra(i), w)
						}
					}
				})
				check(fmt.Sprintf("round %d extra erase", round))

				p.Blocks(n, func(w, lo, hi int) {
					for i := lo; i < hi; i++ {
						if i%4 == 0 || i%4 == 1 {
							s.EraseUnique(edgeOf(round, i), w)
						}
						if i >= n/2 {
							s.InsertUnique(edgeOf(round+1, i), w)
						}
					}
				})
				check(fmt.Sprintf("round %d refill", round))
				if s.Len() != n {
					t.Fatalf("round %d: %d live, want %d", round, s.Len(), n)
				}
				if s.NeedsCompact() {
					live = live[:0]
					s.ForEach(func(e graph.Edge) { live = append(live, e) })
					compact(s, live)
					compactions++
					check(fmt.Sprintf("round %d compact", round))
					if s.Tombstones() != 0 || s.Len() != n {
						t.Fatalf("compaction left %d tombstones, %d live", s.Tombstones(), s.Len())
					}
				}
			}
			if !sawBelow || compactions < 2 {
				t.Fatalf("tombstones below threshold seen %v, %d compactions; the run must cross the threshold repeatedly",
					sawBelow, compactions)
			}
		})
	}
}
