// Package par is the repository's one fork-join primitive. Every layer that
// fans work out (Evaluate and the congestion grid, row merging, FD's build
// phases) cuts its problem into chunks whose layout is a function
// of the problem size alone, has chunk ci write only slot ci of a result, and
// reduces the slots in index order: after Do returns, or for the grid during
// it, each chunk once every earlier one has. par owns only which goroutine
// runs which chunk, a choice that cannot reach the result, so every caller is
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
// goroutines pull indices from an atomic counter, one at a time, so indices
// are claimed in increasing order and a goroutine calls fn for an index only
// after every lower index has been claimed. The congestion grid's in-order
// commit depends on this: a chunk that waits for every earlier one to commit
// never waits on a chunk that no running goroutine holds.
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
