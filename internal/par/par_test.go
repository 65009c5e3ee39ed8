package par

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

func TestChunks(t *testing.T) {
	for n, want := range map[int]int{-1: 1, 0: 1, 1: 1, 63: 63, 64: 64, 65: 64, 1 << 20: 64} {
		if got := Chunks(n); got != want {
			t.Errorf("Chunks(%d) = %d, want %d", n, got, want)
		}
	}
}

// TestDoScratch pins the primitive's whole contract: every index runs
// exactly once, sequential settings run inline in index order on one
// scratch value, and a scratch value is never inside two live calls.
func TestDoScratch(t *testing.T) {
	type scratch struct {
		live  atomic.Int32
		calls int // plain field: -race reports any sharing between goroutines
	}
	for _, workers := range []int{0, 1, 2, 7, 100} {
		for _, k := range []int{0, 1, 2, 63, 64, 65} {
			ran := make([]atomic.Int32, k)
			var mu sync.Mutex
			var order []int
			seen := map[*scratch]int{}
			DoScratch(workers, k, func(ci int, s *scratch) {
				if s.live.Add(1) != 1 {
					t.Errorf("workers=%d k=%d: scratch shared between live calls", workers, k)
				}
				ran[ci].Add(1)
				s.calls++
				runtime.Gosched()
				mu.Lock()
				order = append(order, ci)
				seen[s] = s.calls
				mu.Unlock()
				s.live.Add(-1)
			})
			total := 0
			for _, calls := range seen {
				total += calls
			}
			if total != k {
				t.Errorf("workers=%d k=%d: scratch values saw %d calls", workers, k, total)
			}
			for ci := range ran {
				if n := ran[ci].Load(); n != 1 {
					t.Errorf("workers=%d k=%d: index %d ran %d times", workers, k, ci, n)
				}
			}
			if want := max(1, min(workers, k)); len(seen) > want {
				t.Errorf("workers=%d k=%d: %d scratch values, want at most %d", workers, k, len(seen), want)
			}
			if workers <= 1 || k <= 1 {
				for i, ci := range order {
					if ci != i {
						t.Fatalf("workers=%d k=%d: inline order %v", workers, k, order)
					}
				}
			}
		}
	}
}

// TestDoScratchCommitInOrder runs the congestion grid's commit pattern:
// each call waits until every lower index has committed, then commits. It
// ends only because indices are claimed in increasing order, one at a time.
func TestDoScratchCommitInOrder(t *testing.T) {
	for _, workers := range []int{1, 2, 7} {
		next := 0
		var mu sync.Mutex
		turn := sync.NewCond(&mu)
		DoScratch(workers, 65, func(ci int, _ *struct{}) {
			runtime.Gosched()
			mu.Lock()
			for ci != next {
				turn.Wait()
			}
			next++
			turn.Broadcast()
			mu.Unlock()
		})
		if next != 65 {
			t.Fatalf("workers=%d: %d commits, want 65", workers, next)
		}
	}
}

// TestDo checks the scratch-free wrapper covers the same index set.
func TestDo(t *testing.T) {
	var sum atomic.Int64
	Do(3, 10, func(ci int) { sum.Add(int64(ci)) })
	if sum.Load() != 45 {
		t.Fatalf("Do(3, 10) index sum = %d, want 45", sum.Load())
	}
}
