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
	w := runtime.GOMAXPROCS(0)
	if w > 8 {
		w = 8
	}
	if w > n {
		w = n
	}
	return w
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
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}
