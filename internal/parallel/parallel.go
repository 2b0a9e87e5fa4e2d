package parallel

import (
	"runtime"
	"sync"
)

// DefaultWorkers reports the degree of parallelism used when a caller does
// not specify one. It is GOMAXPROCS at call time, never less than 1.
func DefaultWorkers() int {
	n := runtime.GOMAXPROCS(0)
	if n < 1 {
		n = 1
	}
	return n
}

// minGrain is the fewest items For and ForRange fan out for. Their
// callers pass rows or elements: work items cheaper than a few hundred
// nanoseconds amortise poorly, and fewer than this many of them are not
// worth a goroutine. A caller whose items are each worth one (a session
// of frames) names its worker count through ForWith, which has no grain.
const minGrain = 64

// For executes fn(i) for every i in [0, n) using up to DefaultWorkers()
// goroutines, or inline below the parallel grain. It blocks until all
// iterations complete. fn must be safe for concurrent invocation on
// distinct indices.
func For(n int, fn func(i int)) {
	workers := DefaultWorkers()
	if n < minGrain {
		workers = 1
	}
	ForWith(workers, n, fn)
}

// ForWith is For with an explicit worker count, honoured for any n: at
// most one worker per item, and workers <= 1 is a sequential loop on the
// calling goroutine.
func ForWith(workers, n int, fn func(i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var wg sync.WaitGroup
	// Static chunking: contiguous ranges maximise cache locality for the
	// dense-array workloads this package serves.
	chunk := (n + workers - 1) / workers
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				fn(i)
			}
		}(lo, hi)
	}
	wg.Wait()
}

// ForRange executes fn(lo, hi) over disjoint sub-ranges covering [0, n),
// one call per worker (a single fn(0, n) below the parallel grain). It is
// the preferred form when the body can hoist per-chunk setup (e.g. slice
// re-slicing) out of the inner loop.
func ForRange(n int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	workers := DefaultWorkers()
	if workers <= 1 || n < minGrain {
		fn(0, n)
		return
	}
	if workers > n {
		workers = n
	}
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}
