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

// minGrain is the smallest per-goroutine chunk worth spawning for. Work
// items cheaper than a few hundred nanoseconds amortise poorly; callers
// with very cheap bodies should batch before calling For.
const minGrain = 64

// Serial reports whether For/ForRange would degrade to an inline loop
// on the calling goroutine (a single worker). Hot kernels branch on it
// to run closure-free serial loops: the func literal handed to For is
// itself a heap allocation at the call site, and eliding it is what
// lets the plan executor (internal/nn) hold zero allocations per frame
// on single-core hosts.
func Serial() bool { return DefaultWorkers() == 1 }

// For executes fn(i) for every i in [0, n) using up to DefaultWorkers()
// goroutines. It blocks until all iterations complete. fn must be safe for
// concurrent invocation on distinct indices.
func For(n int, fn func(i int)) {
	ForWith(DefaultWorkers(), n, fn)
}

// ForWith is For with an explicit worker count. workers <= 1, or n below
// the parallel grain, degrades to a sequential loop.
func ForWith(workers, n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if workers <= 1 || n < minGrain {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	if workers > n {
		workers = n
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
// one call per worker. It is the preferred form when the body can hoist
// per-chunk setup (e.g. slice re-slicing) out of the inner loop.
func ForRange(n int, fn func(lo, hi int)) {
	ForRangeWith(DefaultWorkers(), n, fn)
}

// ForRangeWith is ForRange with an explicit worker count.
func ForRangeWith(workers, n int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
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
