package livenet

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// chunkWorkers is the size of the transient worker pool the data path
// uses for per-chunk CPU work (MM-side generate+hash when building a
// manifest, NM-side hash verify when sealing a spooled image):
// enough to stop a multi-megabyte image from being single-core bound,
// small enough not to fight the relay goroutines for the scheduler.
func chunkWorkers(n int) int {
	return min(runtime.GOMAXPROCS(0), 8, n)
}

// parallelChunks runs fn(i) for every i in [0, n) across a small worker
// pool. Small inputs run inline — the pool only pays for itself when
// there are enough chunks to amortize the goroutine handoff. fn must be
// safe to call concurrently for distinct i.
func parallelChunks(n int, fn func(i int)) {
	const minParallel = 8
	workers := chunkWorkers(n)
	if n < minParallel || workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	fanOut(workers, func(int) {
		for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
			fn(i)
		}
	})
}

// fanOut runs fn(i) for every i in [0, n) at once, fn(0) on the caller's
// goroutine, and returns when all have: a round of writes to n links
// costs its slowest write, not their sum. fn must be safe to call
// concurrently for distinct i.
func fanOut(n int, fn func(i int)) {
	var wg sync.WaitGroup
	wg.Add(max(n-1, 0))
	for i := 1; i < n; i++ {
		go func() { defer wg.Done(); fn(i) }()
	}
	if n > 0 {
		fn(0)
	}
	wg.Wait()
}
