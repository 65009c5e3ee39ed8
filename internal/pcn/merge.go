package pcn

import (
	"math/bits"
	"slices"

	"snnmap/internal/par"
)

// Edge aggregation. Eqs. 5–6 sum the spike densities of all synapses between
// one pair of clusters into one edge — a group-by-target sum over each source
// row. Every site that builds a merged adjacency (finalizeCSR, for Expand's
// and Partition's PCNs) runs its raw rows through the one kernel below, so
// the merged weight has one definition:
// the left-to-right sum of the row's entries for that target in arrival
// order. It depends on the input alone, not on a sort's pivots, which is what
// makes the undirected view bitwise symmetric and the result identical at
// any worker count.

// rowMerger is a sparse accumulator over target ids [0, n): dense sums
// guarded by an occupancy bitmap that is all-zero between calls. The arrays
// are allocated by the first row that needs them — rows that arrive strictly
// ascending (every row of a layered net) never do.
type rowMerger struct {
	n   int
	acc []float64 // acc[t] is t's running sum while bit t of occ is set
	occ []uint64
}

// scanWordsPerEntry is how many bitmap words mergeRow will scan per raw row
// entry before it sorts the distinct targets instead. Skipping a zero word is
// a sequential load and a compare; scattering an entry is a random
// read-modify-write, so a few words per entry keep the scan inside the
// scatter's own cost. Measured on graph512k cut into 16-neuron clusters
// (rows of ≈ 256 entries with ≈ 100 distinct targets over 512 words): a
// partitioning pass took 882 ms at 1, 774 at 4, 775 at 8, 786 at 16.
const scanWordsPerEntry = 4

// mergeRow merges the parallel entries of one raw row in place and returns
// the merged length d: to[:d] holds the distinct targets ascending and w[:d]
// their summed weights. Scatter is O(len); emission scans the bitmap between
// the lowest and highest touched word, or, when that span exceeds
// scanWordsPerEntry words per entry, sorts the d distinct targets instead —
// never more than O(len + d·log d).
func (m *rowMerger) mergeRow(to []int32, w []float64) int {
	k := 1
	for k < len(to) && to[k-1] < to[k] {
		k++
	}
	if k >= len(to) {
		return len(to)
	}
	if m.acc == nil {
		m.acc = make([]float64, m.n)
		m.occ = make([]uint64, (m.n+63)/64)
	}
	acc, occ, w := m.acc, m.occ, w[:len(to)]
	d, lo, hi := 0, len(occ), -1
	for k, t := range to {
		wi, bit := int(t>>6), uint64(1)<<(uint(t)&63)
		if occ[wi]&bit != 0 {
			acc[t] += w[k]
			continue
		}
		occ[wi] |= bit
		acc[t] = w[k]
		to[d] = t // first-arrival list, consumed only by the sort path
		d++
		lo, hi = min(lo, wi), max(hi, wi)
	}
	if hi-lo >= scanWordsPerEntry*len(to) {
		slices.Sort(to[:d])
		for i, t := range to[:d] {
			w[i] = acc[t]
			occ[t>>6] = 0
		}
		return d
	}
	out := 0
	for wi := lo; wi <= hi; wi++ {
		word := occ[wi]
		if word == 0 {
			continue
		}
		occ[wi] = 0
		for ; word != 0; word &= word - 1 {
			t := int32(wi<<6 | bits.TrailingZeros64(word))
			to[out], w[out] = t, acc[t]
			out++
		}
	}
	return d
}

// finalizeCSR turns bucketed edge arrays — row i's raw entries occupy
// [counts[i], counts[i+1]) of to/w in arrival order, targets in
// [0, len(counts)-1) — into a merged CSR: every row goes through mergeRow
// (par's fixed chunks of rows fanned over workers, each goroutine with its
// own rowMerger, so the output cannot tell which one merged a row) and the
// merged rows are then compacted to the front in row order. A row for which
// merged(i) reports true is known to arrive strictly ascending, so it is kept
// as it is; a nil merged sends every row through mergeRow. The returned
// slices alias to/w unless merging at least halved the entry count, in which
// case they are exact-sized copies and the raw arrays are garbage.
func finalizeCSR(counts []int64, to []int32, w []float64, workers int, merged func(i int) bool) ([]int64, []int32, []float64) {
	n := len(counts) - 1
	off := make([]int64, n+1)
	k := par.Chunks(n)
	chunk := (n + k - 1) / k
	par.DoScratch(workers, k, func(ci int, m *rowMerger) {
		m.n = n
		for i, hi := ci*chunk, min((ci+1)*chunk, n); i < hi; i++ {
			if merged != nil && merged(i) {
				off[i+1] = counts[i+1] - counts[i]
				continue
			}
			off[i+1] = int64(m.mergeRow(to[counts[i]:counts[i+1]], w[counts[i]:counts[i+1]]))
		}
	})
	var write int64
	for i := 0; i < n; i++ {
		lo, d := counts[i], off[i+1]
		if write != lo {
			copy(to[write:write+d], to[lo:lo+d])
			copy(w[write:write+d], w[lo:lo+d])
		}
		write += d
		off[i+1] = write
	}
	if 2*write <= int64(len(to)) {
		return off, slices.Clone(to[:write]), slices.Clone(w[:write])
	}
	return off, to[:write], w[:write]
}
