// Package toposort implements Algorithm 2 of the paper: a Kahn-style
// topological sort of the PCN that tolerates cycles. When the source set is
// empty but unordered clusters remain (a cycle), the unvisited cluster with
// the smallest index is forced into the order and the walk continues, so the
// output is always a total order of all clusters.
package toposort

import (
	"container/heap"

	"snnmap/internal/pcn"
)

// Monotone reports whether every PCN edge points from a smaller to a larger
// cluster index. Partitioned feed-forward networks (Algorithm 1 and Expand
// both emit clusters in layer order) are always monotone.
// On a monotone PCN Algorithm 2's order is the identity: by induction, when
// position p is assigned every cluster below p is already ordered, so
// cluster p's in-edges are all consumed, it sits in the ready set, and the
// smallest-index tie-break picks it over any larger ready cluster. O(V)
// because each cluster's CSR targets are sorted ascending.
func Monotone(p *pcn.PCN) bool {
	for i := 0; i < p.NumClusters; i++ {
		tos, _ := p.OutEdges(i)
		if len(tos) > 0 && int(tos[0]) <= i {
			return false
		}
	}
	return true
}

// Sort returns Seq: the position of each cluster in the topological order
// (Eq. 15). Ties are broken by smallest cluster index, exactly as in
// Algorithm 2. Monotone PCNs take an O(V) identity fast path; the general
// Kahn walk (sortHeap) is retained as its equivalence oracle.
func Sort(p *pcn.PCN) []int32 {
	if Monotone(p) {
		seq := make([]int32, p.NumClusters)
		for i := range seq {
			seq[i] = int32(i)
		}
		return seq
	}
	return sortHeap(p)
}

// sortHeap is the literal Algorithm 2: Kahn's algorithm with a min-heap
// ready set and the cycle-breaking fallback cursor.
func sortHeap(p *pcn.PCN) []int32 {
	n := p.NumClusters
	seq := make([]int32, n)
	for i := range seq {
		seq[i] = -1
	}
	indeg := p.InDegrees()

	// S: min-heap of ready clusters (no remaining incoming edges).
	s := &intHeap{}
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			heap.Push(s, int32(i))
		}
	}
	// Cursor for the cycle-breaking fallback: the smallest index with
	// Seq == -1. It only moves forward, so the total fallback cost is O(n).
	fallback := 0

	for pos := 0; pos < n; pos++ {
		var node int32
		if s.Len() > 0 {
			node = heap.Pop(s).(int32)
			if seq[node] != -1 {
				// Already forced into the order by the fallback; skip.
				pos--
				continue
			}
		} else {
			for fallback < n && seq[fallback] != -1 {
				fallback++
			}
			node = int32(fallback)
		}
		seq[node] = int32(pos)
		tos, _ := p.OutEdges(int(node))
		for _, to := range tos {
			indeg[to]--
			if indeg[to] == 0 && seq[to] == -1 {
				heap.Push(s, to)
			}
		}
	}
	return seq
}

// Order returns the inverse of Sort: Order()[j] is the cluster at position j.
func Order(p *pcn.PCN) []int32 {
	seq := Sort(p)
	order := make([]int32, len(seq))
	for c, pos := range seq {
		order[pos] = int32(c)
	}
	return order
}

type intHeap []int32

func (h intHeap) Len() int            { return len(h) }
func (h intHeap) Less(i, j int) bool  { return h[i] < h[j] }
func (h intHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *intHeap) Push(x interface{}) { *h = append(*h, x.(int32)) }
func (h *intHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}
