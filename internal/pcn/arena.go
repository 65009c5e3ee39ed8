package pcn

// levelArena recycles the transient scratch of the multilevel coarsening
// loop across hierarchy levels. Every level used to allocate fresh matching
// vectors and contraction bound buffers (the bound buffer alone holds every
// fine edge twice); levels shrink geometrically, so the level-0 allocation
// covers the whole hierarchy and the churn collapses to one allocation per
// buffer. The arena is confined to a single multilevelGroup call — no
// sync.Pool, no cross-goroutine sharing — and each grab reslices to the
// exact requested length, so stale tail contents are never observable.
// DESIGN.md §10 records the reuse rule: a buffer may live in the arena only
// if its contents are dead by the time the next level grabs it.
type levelArena struct {
	// heavyEdgeMatch scratch.
	match, pref []int32
	counts      []int64
	// contract scratch (coarseOf and the coarse CSR survive the level and
	// are NOT pooled).
	first, second, cnt []int32
	bound              []int64
	selfW              []float64
	bufTo              []int32
	bufW               []float64
	// refineLevel scratch, indexed by part (the part count is constant
	// across levels). gain and seen are kept all-zero/false between calls by
	// refineLevel's candidate-list reset; waitHead is reset per call.
	gain     []float64
	seen     []bool
	waitHead []int32
	// refineLevel's dirty-vertex bitset and waiter-list entries, both dead
	// once the level is refined. The waiter entries peak on the coarsest
	// level, so growing them once spares every later level the churn.
	dirty   []uint64
	waiters []waiter
}

// waiter is one entry of a part's refused-vertex list in refineLevel: vertex
// v, then the entry at index next (-1 ends the list).
type waiter struct{ v, next int32 }

func grabI32(buf *[]int32, n int) []int32 {
	if cap(*buf) < n {
		*buf = make([]int32, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

func grabI64(buf *[]int64, n int) []int64 {
	if cap(*buf) < n {
		*buf = make([]int64, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

func grabU64(buf *[]uint64, n int) []uint64 {
	if cap(*buf) < n {
		*buf = make([]uint64, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

func grabF64(buf *[]float64, n int) []float64 {
	if cap(*buf) < n {
		*buf = make([]float64, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

func grabBool(buf *[]bool, n int) []bool {
	if cap(*buf) < n {
		*buf = make([]bool, n)
	}
	*buf = (*buf)[:n]
	return *buf
}
