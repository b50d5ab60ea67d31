package conc

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"gesmc/internal/graph"
)

func edge(u, v uint32) graph.Edge { return graph.MakeEdge(u, v) }

func TestPackUnpackRoundTrip(t *testing.T) {
	cases := []graph.Edge{
		edge(0, 1),
		edge(5, 9),
		edge(1<<28-2, 1<<28-1),
		edge(0, 1<<28-1),
	}
	for _, e := range cases {
		if got := unpackEdge(packEdge(e)); got != e {
			t.Fatalf("roundtrip %v -> %v", e, got)
		}
	}
}

func TestSentinelsAreNotEdges(t *testing.T) {
	// empty and tombstone decode to loops, which are never stored.
	if !unpackEdge(bucketEmpty).IsLoop() || !unpackEdge(bucketTombstone).IsLoop() {
		t.Fatal("sentinel collides with a storable edge")
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

func TestTryLockSemantics(t *testing.T) {
	s := NewEdgeSet(16, 2)
	e := edge(1, 2)
	if s.TryLock(e, 0) {
		t.Fatal("locked an absent edge")
	}
	s.InsertUnique(e, 0)
	if !s.TryLock(e, 0) {
		t.Fatal("failed to lock unlocked edge")
	}
	if s.TryLock(e, 1) {
		t.Fatal("double lock")
	}
	if !s.Contains(e) {
		t.Fatal("locked edge invisible to Contains")
	}
	s.Unlock(e, 0)
	if !s.TryLock(e, 1) {
		t.Fatal("failed to relock after unlock")
	}
	s.EraseLocked(e, 1)
	if s.Contains(e) {
		t.Fatal("erased edge still present")
	}
}

func TestTryInsertLock(t *testing.T) {
	s := NewEdgeSet(16, 5)
	e := edge(7, 9)
	if !s.TryInsertLock(e, 3) {
		t.Fatal("insert-lock of fresh edge failed")
	}
	if s.TryInsertLock(e, 4) {
		t.Fatal("insert-lock of existing edge succeeded")
	}
	if s.TryLock(e, 4) {
		t.Fatal("insert-locked edge lockable by another owner")
	}
	s.Unlock(e, 3)
	if !s.TryLock(e, 4) {
		t.Fatal("unlock after insert-lock broken")
	}
}

func TestConcurrentLockMutualExclusion(t *testing.T) {
	// Many goroutines fight over a handful of edges; at most one may
	// hold each lock at a time, checked with an owner shadow array.
	const nEdges = 8
	const workers = 8
	const iters = 5000
	s := NewEdgeSet(64, workers)
	for i := uint32(0); i < nEdges; i++ {
		s.InsertUnique(edge(i, i+100), 0)
	}
	var holders [nEdges]atomic.Int32
	var violations atomic.Int32
	Run(workers, func(w int) {
		state := uint64(w)*2654435761 + 1
		for it := 0; it < iters; it++ {
			state = state*6364136223846793005 + 1442695040888963407
			i := uint32(state>>33) % nEdges
			e := edge(i, i+100)
			if s.TryLock(e, uint8(w)) {
				if !holders[i].CompareAndSwap(0, int32(w+1)) {
					violations.Add(1)
				}
				if !holders[i].CompareAndSwap(int32(w+1), 0) {
					violations.Add(1)
				}
				s.Unlock(e, uint8(w))
			}
		}
	})
	if v := violations.Load(); v != 0 {
		t.Fatalf("%d mutual-exclusion violations", v)
	}
}

func TestConcurrentTryInsertLockUniqueWinner(t *testing.T) {
	// Racing inserters of the same edge: exactly one must win per round.
	const workers = 8
	const rounds = 2000
	s := NewEdgeSet(1<<12, workers)
	for r := 0; r < rounds; r++ {
		e := edge(uint32(r), uint32(r)+1<<20)
		var winners atomic.Int32
		winner := atomic.Int32{}
		winner.Store(-1)
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func(w int) {
				defer wg.Done()
				if s.TryInsertLock(e, uint8(w)) {
					winners.Add(1)
					winner.Store(int32(w))
				}
			}(w)
		}
		wg.Wait()
		if got := winners.Load(); got != 1 {
			t.Fatalf("round %d: %d winners, want exactly 1", r, got)
		}
		s.EraseLocked(e, uint8(winner.Load()))
		if s.NeedsCompact() {
			s.Compact(nil)
		}
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
	s.Compact(live)
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

// TestShardedCountsMatchBucketScan drives the unique path (erase before
// insert, as in the kernel's apply phase, with tombstone reuse) and the
// ticket path from a Pool gang, and checks at every quiescent point
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
			ticket := func(i int) graph.Edge { return edge(uint32(i), uint32(1<<27+round*n+i)) }
			var live []graph.Edge
			for round = 0; round < 12; round++ {
				p.Fused(&plan)
				check(fmt.Sprintf("round %d apply", round))

				// Ticket path: every worker insert-locks its own
				// disjoint edges with its owner id, erases half at
				// once and, after a barrier, relocks and erases the
				// rest.
				p.Run(func(w int) {
					for i := w; i < n/4; i += workers {
						if !s.TryInsertLock(ticket(i), uint8(w)) {
							t.Errorf("TryInsertLock %v failed", ticket(i))
							return
						}
						if i%2 == 0 {
							s.EraseLocked(ticket(i), uint8(w))
						} else {
							s.Unlock(ticket(i), uint8(w))
						}
					}
				})
				check(fmt.Sprintf("round %d tickets", round))
				p.Run(func(w int) {
					// Relock under a different owner than the inserter.
					o := (w + 1) % workers
					for i := o; i < n/4; i += workers {
						if i%2 == 1 {
							if !s.TryLock(ticket(i), uint8(w)) {
								t.Errorf("TryLock %v failed", ticket(i))
								return
							}
							s.EraseLocked(ticket(i), uint8(w))
						}
					}
				})
				check(fmt.Sprintf("round %d ticket erase", round))

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
					s.Compact(live)
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
