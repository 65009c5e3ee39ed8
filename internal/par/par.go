// Package par is the repository's one fork-join primitive. Every layer that
// fans work out (Evaluate and the congestion grid, matching and row merging,
// FD's build phases) cuts its problem into chunks whose layout
// is a function of the problem size alone, has chunk ci write only slot ci
// of a preallocated result, and reduces the slots in index order after Do
// returns. par owns the remaining question — which goroutine runs which
// chunk — and the answer cannot reach the result, so every caller is
// bit-identical at any worker count (DESIGN.md "Deterministic fork-join").
//
// Worker counts are normalised here and nowhere else: workers <= 1 means
// inline, in index order, on the calling goroutine.
package par

import (
	"sync"
	"sync/atomic"
)

// Chunks returns the default chunk count for a problem of n items: 64,
// lowered so no chunk is empty, and at least 1 so the empty problem still
// takes the same code path. It never depends on the worker count.
func Chunks(n int) int {
	return max(1, min(n, 64))
}

// Do runs fn(ci) for every ci in [0, k) and returns when all have finished.
func Do(workers, k int, fn func(ci int)) {
	DoScratch(workers, k, func(ci int, _ *struct{}) { fn(ci) })
}

// DoScratch is Do with per-goroutine scratch: each goroutine that runs
// chunks owns one zero-initialised S for its lifetime and passes it to every
// fn call it makes, so no two live calls ever share one. With workers <= 1
// or k <= 1 the chunks run inline in index order; otherwise min(workers, k)
// goroutines pull indices from an atomic counter.
func DoScratch[S any](workers, k int, fn func(ci int, scratch *S)) {
	workers = min(workers, k)
	if workers <= 1 {
		var s S
		for ci := 0; ci < k; ci++ {
			fn(ci, &s)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			var s S
			for ci := int(next.Add(1)) - 1; ci < k; ci = int(next.Add(1)) - 1 {
				fn(ci, &s)
			}
		}()
	}
	wg.Wait()
}
