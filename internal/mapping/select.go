package mapping

import (
	"cmp"
	"math"
	"math/bits"
	"slices"
)

// queueCmp is the total order of the tension queue: decreasing tension,
// ties broken by increasing pair id. Pair ids are unique within one queue
// (initialQueue enumerates each pair once, nextQueue walks a set of pair
// ids), so no two entries ever compare equal — selectTop relies on that
// strictness.
func queueCmp(a, b pairTension) int {
	if a.tension != b.tension {
		if a.tension > b.tension {
			return -1
		}
		return 1
	}
	return cmp.Compare(a.id, b.id)
}

// before reports queueCmp(a, b) < 0 without the call through a func value
// that slices.SortFunc pays per comparison.
func before(a, b pairTension) bool {
	return a.tension > b.tension || a.tension == b.tension && a.id < b.id
}

// sortQueue fully orders q by queueCmp.
func sortQueue(q []pairTension) {
	sortDepth(q, 2*bits.Len(uint(len(q))))
}

// sortDepth is a quicksort on the concrete entry type: partitionQueue's
// pivots, recursion into the smaller side, and insertion sort below 13
// entries. Past depth levels it hands the rest to slices.SortFunc, which
// keeps adversarial inputs O(n log n).
func sortDepth(q []pairTension, depth int) {
	for len(q) > 12 {
		if depth == 0 {
			slices.SortFunc(q, queueCmp)
			return
		}
		depth--
		p := partitionQueue(q)
		if p < len(q)-p {
			sortDepth(q[:p], depth)
			q = q[p+1:]
		} else {
			sortDepth(q[p+1:], depth)
			q = q[:p]
		}
	}
	for i := 1; i < len(q); i++ {
		for j := i; j > 0 && before(q[j], q[j-1]); j-- {
			q[j], q[j-1] = q[j-1], q[j]
		}
	}
}

// partitionQueue partitions q (at least 3 entries) around the median of its
// first, middle and last entries (median-of-three Lomuto) and returns the
// pivot's final index p: q[:p] precede it and q[p+1:] follow it.
func partitionQueue(q []pairTension) int {
	hi, mid := len(q), len(q)/2
	// Order q[0] ≤ q[mid] ≤ q[hi-1], then park the median at hi-2.
	if before(q[mid], q[0]) {
		q[mid], q[0] = q[0], q[mid]
	}
	if before(q[hi-1], q[0]) {
		q[hi-1], q[0] = q[0], q[hi-1]
	}
	if before(q[hi-1], q[mid]) {
		q[hi-1], q[mid] = q[mid], q[hi-1]
	}
	q[mid], q[hi-2] = q[hi-2], q[mid]
	pivot := q[hi-2]
	store := 0
	for i := 0; i < hi-2; i++ {
		if before(q[i], pivot) {
			q[i], q[store] = q[store], q[i]
			store++
		}
	}
	q[store], q[hi-2] = q[hi-2], q[store]
	return store
}

// swapLimit is ⌈λ·n⌉ clamped to [1, n] for n > 0: the number of queue
// entries one sweep iteration consumes, and therefore the only prefix whose
// order Algorithm 3 ever observes (nextQueue treats the rest of the queue
// as an unordered set).
func swapLimit(lambda float64, n int) int {
	if n <= 0 {
		return 0
	}
	limit := int(math.Ceil(lambda * float64(n)))
	if limit < 1 {
		limit = 1
	}
	if limit > n {
		limit = n
	}
	return limit
}

// selectTop rearranges q so that q[:m] holds the m first entries under
// queueCmp (the highest-tension pairs) in fully sorted order; the order of
// the tail q[m:] is unspecified. Because queueCmp is a strict total order,
// the resulting prefix is a deterministic function of q's contents — pivot
// choices and the input permutation affect only the tail (see DESIGN.md for
// why that makes the FD sweep bit-identical to a full sort).
func selectTop(q []pairTension, m int) {
	if m <= 0 {
		return
	}
	if m >= len(q) {
		sortQueue(q)
		return
	}
	// Iterative quickselect narrowing the window [lo, hi) that contains the
	// m-th boundary; the depth bound keeps adversarial inputs O(n log n) by
	// falling back to sorting the window.
	lo, hi := 0, len(q)
	for depth := 2 * bits.Len(uint(len(q))); hi-lo > 12 && depth > 0; depth-- {
		// q[lo:store] precede the pivot (now at store), q[store+1:hi)
		// follow it.
		store := lo + partitionQueue(q[lo:hi])
		if m <= store {
			hi = store
		} else {
			lo = store + 1
		}
	}
	// The boundary window is small (or the depth bound fired): resolve it
	// exactly, then order the now-complete top-m prefix.
	sortQueue(q[lo:hi])
	sortQueue(q[:m])
}
