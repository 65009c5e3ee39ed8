package pcn

import "math"

// Symmetric is the undirected view of a PCN without a materialized copy: the
// PCN's own out-CSR plus its transpose, the in-edge CSR by target cluster.
// Walking a cluster's in-sources and out-targets merged by id — summing the
// two weights of a mutual pair — yields exactly the entries of
// Undirected.Neighbors, ids and weight bits alike: both sides are strictly
// increasing (the out-CSR is merged, so a neighbor appears at most once per
// side) and a+b is commutative in IEEE-754. The transpose stores each
// distinct run of source ids once — adjacent targets with the same source
// set share it, as every cluster of a dense layer shares its source layer —
// plus one weight per in-edge of a mixed row and one per uniform row (every
// row of a layer-spec net: traverseConns gives a target cluster one share
// per Conn), where Undirected costs 2E×12 B plus a scatter, a per-node sort
// and a compaction.
type Symmetric struct {
	// out is the PCN's own out-CSR (aliased, not copied); in holds the
	// in-edges by target cluster. Within one cluster's range in-sources are
	// strictly increasing: the counting pass below visits sources in
	// ascending order, so the buckets never need sorting.
	out, in csr
}

// csr is one direction of the adjacency: cluster i's neighbor ids (strictly
// increasing) are id run r = row[i], [off[r], off[r+1]), and its weights
// [wOff[i], wOff[i+1]): one per id, or a single weight every id of the row
// shares (a broadcast row). A nil row is the identity, r = i: the out side,
// which aliases off as wOff. On the in side several clusters may read one
// id run, so runs are strictly read-only.
type csr struct {
	off, wOff []int64
	row       []int32
	ids       []int32
	w         []float64
}

// edges returns cluster i's ids and weights, len(ws) == len(ids) or
// len(ws) == 1; index the weights as ws[k&WeightMask(ids, ws)]. The slices
// alias the storage and are capacity-clipped.
func (c csr) edges(i int) (ids []int32, ws []float64) {
	r := i
	if c.row != nil {
		r = int(c.row[i])
	}
	lo, hi := c.off[r], c.off[r+1]
	wlo, whi := c.wOff[i], c.wOff[i+1]
	return c.ids[lo:hi:hi], c.w[wlo:whi:whi]
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

// buildSymmetric transposes the out-CSR. Its counting pass walks each out-row
// and learns, per target t: its in-degree (in off[t+1]); whether its in-row is
// uniform (first[t] is the first weight it meets, mixed[t] whether a later one
// differs in any bit); and adj[t], the number of sources whose row holds t−1
// immediately before t. Rows are strictly increasing, so adj[t] counts the
// sources t shares with t−1, and t's source set equals t−1's exactly when
// indeg(t) == indeg(t−1) == adj[t]: t then reads t−1's id run. The count is
// taken within a row, never across the flat OutTo array, where the entry
// before t may end another source's row.
func (p *PCN) buildSymmetric() *Symmetric {
	n := p.NumClusters
	off := make([]int64, n+1)
	first := make([]float64, n)
	mixed := make([]bool, n)
	adj := make([]int32, n)
	for i := 0; i < n; i++ {
		tos, ws := p.OutEdges(i)
		for k, t := range tos {
			if off[t+1] == 0 {
				first[t] = ws[k]
			} else if math.Float64bits(ws[k]) != math.Float64bits(first[t]) {
				mixed[t] = true
			}
			off[t+1]++
			if k > 0 && tos[k-1] == t-1 {
				adj[t]++
			}
		}
	}
	// Number the id runs and compact their offsets into off in place: run r
	// starts at off[r], and r ≤ t, so off[t+1] is read before it is reused.
	// adj becomes the scatter's rank, the in-edges of row t scattered so far:
	// it starts at 0 for a row the scatter writes — the first of its run
	// (ids) or a mixed row (weights) — and at −1 for a row it skips.
	row := make([]int32, n)
	wOff := make([]int64, n+1)
	runs, prev := 0, int64(-1)
	for t := 0; t < n; t++ {
		deg := off[t+1]
		lead := deg != prev || int64(adj[t]) != deg
		if lead {
			off[runs+1] = off[runs] + deg
			runs++
		}
		row[t], prev = int32(runs-1), deg
		adj[t] = 0
		if !mixed[t] {
			deg = min(deg, 1)
			if !lead {
				adj[t] = -1
			}
		}
		wOff[t+1] = wOff[t] + deg
	}
	off = off[:runs+1]
	ids := make([]int32, off[runs])
	w := make([]float64, wOff[n])
	for t, f := range first {
		if !mixed[t] && wOff[t+1] > wOff[t] {
			w[wOff[t]] = f
		}
	}
	rank := adj
	for i := 0; i < n; i++ {
		tos, ws := p.OutEdges(i)
		for k, t := range tos {
			r := int64(rank[t])
			if r < 0 {
				continue
			}
			rank[t]++
			if t == 0 || row[t] != row[t-1] {
				ids[off[row[t]]+r] = int32(i)
			}
			if mixed[t] {
				w[wOff[t]+r] = ws[k]
			}
		}
	}
	return &Symmetric{
		out: csr{off: p.OutOff, wOff: p.OutOff, ids: p.OutTo, w: p.OutW},
		in:  csr{off: off, wOff: wOff, row: row, ids: ids, w: w},
	}
}

// InEdges returns cluster c's in-sources, strictly increasing, and their
// weights: len(ws) == len(from), or 1 for a broadcast row (WeightMask). The
// slices alias the transposed CSR, whose id run every cluster with c's source
// set reads too, so they are strictly read-only.
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
