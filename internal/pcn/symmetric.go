package pcn

import "math"

// Symmetric is the undirected view of a PCN without a materialized copy: the
// PCN's own out-CSR plus its transpose, the in-edge CSR by target cluster.
// Walking a cluster's in-sources and out-targets merged by id — summing the
// two weights of a mutual pair — yields exactly the entries of
// Undirected.Neighbors, ids and weight bits alike: both sides are strictly
// increasing (the out-CSR is merged, so a neighbor appears at most once per
// side) and a+b is commutative in IEEE-754. The transpose costs E×4 B of
// source ids plus one weight per in-edge of a mixed row and one per uniform
// row (every row of a layer-spec net: traverseConns gives a target cluster
// one share per Conn), where Undirected costs 2E×12 B plus a scatter, a
// per-node sort and a compaction.
type Symmetric struct {
	// out is the PCN's own out-CSR (aliased, not copied); in holds the
	// in-edges by target cluster. Within one cluster's range in-sources are
	// strictly increasing: the counting pass below visits sources in
	// ascending order, so the buckets never need sorting.
	out, in csr
}

// csr is one direction of the adjacency: cluster i's neighbor ids (strictly
// increasing) occupy [off[i], off[i+1]) and its weights [wOff[i], wOff[i+1]):
// one per id, or a single weight every id of the row shares (a broadcast
// row). The out side aliases off as wOff.
type csr struct {
	off, wOff []int64
	ids       []int32
	w         []float64
}

// edges returns cluster i's ids and weights, len(ws) == len(ids) or
// len(ws) == 1; index the weights as ws[k&WeightMask(ids, ws)]. The slices
// alias the storage.
func (c csr) edges(i int) (ids []int32, ws []float64) {
	lo, hi := c.wOff[i], c.wOff[i+1]
	return c.ids[c.off[i]:c.off[i+1]], c.w[lo:hi:hi]
}

// WeightMask returns the mask that turns a position k in ids into its index
// in ws, for the runs edges and Symmetric.Neighbors return: −1 when every id
// has its own weight, 0 when ws is one weight broadcast over the run.
func WeightMask(ids []int32, ws []float64) int {
	if len(ws) == len(ids) {
		return -1
	}
	return 0
}

// Symmetric returns (building the transpose on first use) the undirected
// view. It is safe to call from concurrent goroutines sharing the PCN.
func (p *PCN) Symmetric() *Symmetric {
	a := p.lazyAdjacency()
	a.symOnce.Do(func() { a.sym = p.buildSymmetric() })
	return a.sym
}

func (p *PCN) buildSymmetric() *Symmetric {
	n := p.NumClusters
	off := make([]int64, n+1)
	// The counting pass also learns which in-rows are uniform: first[t] is
	// the first weight row t meets, mixed[t] whether a later one differs.
	first := make([]float64, n)
	mixed := make([]bool, n)
	for k, to := range p.OutTo {
		if w := p.OutW[k]; off[to+1] == 0 {
			first[to] = w
		} else if math.Float64bits(w) != math.Float64bits(first[to]) {
			mixed[to] = true
		}
		off[to+1]++
	}
	wOff := make([]int64, n+1)
	for i := 0; i < n; i++ {
		deg := off[i+1]
		off[i+1] += off[i]
		if !mixed[i] {
			deg = min(deg, 1)
		}
		wOff[i+1] = wOff[i] + deg
	}
	from := make([]int32, off[n])
	w := make([]float64, wOff[n])
	rank := make([]int64, n) // in-edges of each row scattered so far
	for i := 0; i < n; i++ {
		tos, ws := p.OutEdges(i)
		for k, t := range tos {
			r := rank[t]
			rank[t]++
			from[off[t]+r] = int32(i)
			if lo := wOff[t]; r < wOff[t+1]-lo {
				w[lo+r] = ws[k] // every edge of a mixed row, the first of a uniform one
			}
		}
	}
	return &Symmetric{out: csr{p.OutOff, p.OutOff, p.OutTo, p.OutW}, in: csr{off, wOff, from, w}}
}

// InEdges returns cluster c's in-sources, strictly increasing, and their
// weights: len(ws) == len(from), or 1 for a broadcast row (WeightMask). The
// slices alias the transposed CSR and are read-only.
func (s *Symmetric) InEdges(c int) (from []int32, ws []float64) {
	return s.in.edges(c)
}

// MergeBuf is caller-owned scratch for Symmetric.Neighbors; one per
// goroutine, reused across calls.
type MergeBuf struct {
	to []int32
	w  []float64
}

// Neighbors returns cluster c's undirected neighborhood as two runs to be
// walked one after the other: together they hold every neighbor once, in
// ascending id order, with the combined weight of both directions. When all
// in-sources precede all out-targets (every cluster of a feed-forward net)
// or the reverse, the merge is a concatenation and the runs alias the CSR
// storage; otherwise the merged list is written to buf and returned as the
// first run. A weight run is as long as its id run or, when the run is a
// broadcast row, one weight long (WeightMask). The slices are read-only and
// valid until buf's next use.
func (s *Symmetric) Neighbors(c int, buf *MergeBuf) (to1 []int32, w1 []float64, to2 []int32, w2 []float64) {
	in, inW := s.in.edges(c)
	out, outW := s.out.edges(c)
	switch {
	case len(in) == 0 || len(out) == 0 || in[len(in)-1] < out[0]:
		return in, inW, out, outW
	case out[len(out)-1] < in[0]:
		return out, outW, in, inW
	}
	to, w := buf.to[:0], buf.w[:0]
	im, om := WeightMask(in, inW), WeightMask(out, outW)
	i, j := 0, 0
	for i < len(in) && j < len(out) {
		switch {
		case in[i] < out[j]:
			to, w = append(to, in[i]), append(w, inW[i&im])
			i++
		case in[i] > out[j]:
			to, w = append(to, out[j]), append(w, outW[j&om])
			j++
		default:
			to, w = append(to, in[i]), append(w, outW[j&om]+inW[i&im])
			i++
			j++
		}
	}
	for ; i < len(in); i++ {
		to, w = append(to, in[i]), append(w, inW[i&im])
	}
	for ; j < len(out); j++ {
		to, w = append(to, out[j]), append(w, outW[j&om])
	}
	buf.to, buf.w = to, w
	return to, w, nil, nil
}
