// Package conc provides the shared-memory concurrent building blocks of
// the parallel switching algorithms: a fixed-capacity concurrent edge set
// (§5.2 of the paper), the per-superstep dependency table of Algorithm 1,
// the persistent worker gang, and small parallel-for helpers.
package conc

import "sync"

// Run executes body on workers goroutines (worker ids 0..workers-1) and
// waits for all of them. workers < 1 is treated as 1.
func Run(workers int, body func(worker int)) {
	if workers <= 1 {
		body(0)
		return
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			body(w)
		}(w)
	}
	wg.Wait()
}

// Blocks partitions [0, n) into workers contiguous blocks and runs fn on
// each block concurrently. Blocks differ in size by at most one.
func Blocks(n, workers int, fn func(worker, lo, hi int)) {
	if workers < 1 {
		workers = 1
	}
	if workers > n {
		workers = n
		if workers == 0 {
			return
		}
	}
	Run(workers, func(w int) {
		lo := n * w / workers
		hi := n * (w + 1) / workers
		fn(w, lo, hi)
	})
}
