package pcn

import (
	"math"
	"slices"
)

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
// and a compaction. The out side reads the same way once some out-row
// repeats its predecessor's: a source whose out-row is bit-equal to the one
// before it (every cluster of a dense layer but the first) reads the stretch
// leader's ids in the PCN's own OutTo, and a uniform out-row stores one
// weight.
type Symmetric struct {
	// out is the out-CSR over the PCN's own OutOff/OutTo; in holds the
	// in-edges by target cluster. Within one cluster's range in-sources are
	// strictly increasing: the counting pass below visits sources in
	// ascending order, so the buckets never need sorting.
	out, in csr
}

// csr is one direction of the adjacency: cluster i's neighbor ids (strictly
// increasing) are id run r = row[i], [off[r], off[r+1]), and its weights
// [wOff[i], wOff[i+1]): one per id, or a single weight every id of the row
// shares (a broadcast row). A nil row is the identity, r = i: the out side
// of a PCN in which no out-row repeats, which aliases the PCN's whole
// out-CSR (wOff is off). Several clusters may read one id run, so runs are
// strictly read-only.
type csr struct {
	off, wOff []int64
	row       []int32
	ids       []int32
	w         []float64
}

// edges returns cluster i's ids and weights, len(ws) == len(ids) or
// len(ws) == 1; index the weights as ws[k&WeightMask(ids, ws)]. The slices
// alias the storage and are capacity-clipped.
func (c *csr) edges(i int) (ids []int32, ws []float64) {
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

// buildSymmetric transposes the out-CSR one stretch of sources at a time: k
// consecutive sources whose out-rows are bit-equal (outLeads, or Expand's
// record of it) are k sources of every target of the one row. Its counting
// pass walks each stretch's row and learns, per target t: its in-degree (in
// row[t], until the runs are numbered); whether its in-row is uniform
// (first[t] is the first weight it meets, mixed[t] whether a later one
// differs in any bit); and adj[t], the number of sources whose row holds t−1
// immediately before t. Rows are strictly increasing, so adj[t] counts the
// sources t shares with t−1, and t's source set equals t−1's exactly when
// indeg(t) == indeg(t−1) == adj[t]: t then reads t−1's id run. The count is
// taken within a row, never across the flat OutTo array, where the entry
// before t may end another source's row.
func (p *PCN) buildSymmetric() *Symmetric {
	n := p.NumClusters
	var leads []int32
	if p.plan != nil {
		leads = p.plan.leads
	} else {
		leads = p.outLeads()
	}
	// next returns the end of the stretch that starts at source i.
	next := func(i int) int {
		j := i + 1
		for leads != nil && j < n && leads[j] == int32(i) {
			j++
		}
		return j
	}
	row := make([]int32, n)
	first := make([]float64, n)
	mixed := make([]bool, n)
	adj := make([]int32, n)
	for i := 0; i < n; {
		j := next(i)
		k := int32(j - i)
		tos, ws := p.OutEdges(i)
		for x, t := range tos {
			if row[t] == 0 {
				first[t] = ws[x]
			} else if math.Float64bits(ws[x]) != math.Float64bits(first[t]) {
				mixed[t] = true
			}
			row[t] += k
			if x > 0 && tos[x-1] == t-1 {
				adj[t] += k
			}
		}
		i = j
	}
	// Count the id runs, then number them in row and lay out their offsets.
	// adj becomes the scatter's rank, the in-edges of row t scattered so far:
	// it starts at 0 for a row the scatter writes — the first of its run
	// (ids) or a mixed row (weights) — and at −1 for a row it skips.
	runs, prev := 0, int32(-1)
	for t, deg := range row {
		if deg != prev || adj[t] != deg {
			runs++
		}
		prev = deg
	}
	off := make([]int64, runs+1)
	wOff := make([]int64, n+1)
	run := -1
	prev = -1
	for t, deg := range row {
		lead := deg != prev || adj[t] != deg
		if lead {
			run++
			off[run+1] = off[run] + int64(deg)
		}
		row[t], prev = int32(run), deg
		adj[t] = 0
		if !mixed[t] {
			deg = min(deg, 1)
			if !lead {
				adj[t] = -1
			}
		}
		wOff[t+1] = wOff[t] + int64(deg)
	}
	ids := make([]int32, off[runs])
	w := make([]float64, wOff[n])
	for t, f := range first {
		if !mixed[t] && wOff[t+1] > wOff[t] {
			w[wOff[t]] = f
		}
	}
	// A stretch's k sources are consecutive ids, so each row it reaches gets
	// them as one range: ids for the first row of an id run, the one weight
	// for a mixed row. A stretch of one (every source of a CNN or a random
	// graph) takes the edge-by-edge scatter: the range loops cost it ≈ 30 %
	// of graph512k's transpose.
	rank := adj
	for i := 0; i < n; {
		j := next(i)
		k := int64(j - i)
		tos, ws := p.OutEdges(i)
		if k == 1 {
			for x, t := range tos {
				r := int64(rank[t])
				if r < 0 {
					continue
				}
				rank[t]++
				if t == 0 || row[t] != row[t-1] {
					ids[off[row[t]]+r] = int32(i)
				}
				if mixed[t] {
					w[wOff[t]+r] = ws[x]
				}
			}
			i = j
			continue
		}
		for x, t := range tos {
			r := int64(rank[t])
			if r < 0 {
				continue
			}
			rank[t] += int32(k)
			if t == 0 || row[t] != row[t-1] {
				dst := ids[off[row[t]]+r:][:k]
				for m := range dst {
					dst[m] = int32(i + m)
				}
			}
			if mixed[t] {
				dst := w[wOff[t]+r:][:k]
				for m := range dst {
					dst[m] = ws[x]
				}
			}
		}
		i = j
	}
	// first is dead: the out side may keep its weights there.
	return &Symmetric{out: p.outCSR(leads, next, first), in: csr{off: off, wOff: wOff, row: row, ids: ids, w: w}}
}

// outLeads returns, per source, the first source of its stretch: the
// consecutive sources whose out-rows are bit-equal to its own, ids and
// weight bits. It returns nil when no nonempty out-row equals its
// predecessor's (a CNN's sliding windows, a random graph), so that the out
// side stays the identity alias. It scans every row; Expand records the same
// answer from its plan, and only a PCN without that record pays the scan.
func (p *PCN) outLeads() []int32 {
	return p.leadsBy(func(i int) bool { return p.sameOutRow(i-1, i) })
}

// leadsBy is outLeads with same(i) reporting whether source i's out-row
// equals source i−1's.
func (p *PCN) leadsBy(same func(i int) bool) []int32 {
	var lead []int32
	for i := 1; i < p.NumClusters; i++ {
		if !same(i) {
			if lead != nil {
				lead[i] = int32(i)
			}
			continue
		}
		if lead == nil {
			lead = make([]int32, p.NumClusters)
			for c := range lead[:i] {
				lead[c] = int32(c)
			}
		}
		lead[i] = lead[i-1]
	}
	return lead
}

// sameOutRow reports whether sources a and b have equal nonempty out-rows,
// ids and weight bits. Equal ends and length with the span of a run of
// consecutive ids leave no room for an id to differ, so a dense row's ids
// compare in O(1).
func (p *PCN) sameOutRow(a, b int) bool {
	ta, wa := p.OutEdges(a)
	tb, wb := p.OutEdges(b)
	n := len(ta)
	switch {
	case n == 0 || n != len(tb) || ta[0] != tb[0] || ta[n-1] != tb[n-1]:
		return false
	case int(ta[n-1]-ta[0]) != n-1 && !slices.Equal(ta, tb):
		return false
	}
	for k, w := range wa {
		if math.Float64bits(w) != math.Float64bits(wb[k]) {
			return false
		}
	}
	return true
}

// outCSR returns the out side: the PCN's own out-CSR when no out-row
// repeats (lead == nil), else OutOff/OutTo read through lead — a stretch
// shares its leader's ids — with the weights restored per source, one for a
// uniform row and all of them for a mixed one. next is buildSymmetric's
// stretch end; the weights go to scratch when they fit.
func (p *PCN) outCSR(lead []int32, next func(int) int, scratch []float64) csr {
	if lead == nil {
		return csr{off: p.OutOff, wOff: p.OutOff, ids: p.OutTo, w: p.OutW}
	}
	n := p.NumClusters
	wOff := make([]int64, n+1)
	for i := 0; i < n; {
		j := next(i)
		_, ws := p.OutEdges(i)
		deg := int64(len(ws))
		if uniform(ws) {
			deg = min(deg, 1)
		}
		for c := i; c < j; c++ {
			wOff[c+1] = wOff[c] + deg
		}
		i = j
	}
	w := scratch[:min(wOff[n], int64(len(scratch)))]
	if int64(len(w)) < wOff[n] {
		w = make([]float64, wOff[n])
	}
	for i := 0; i < n; {
		j := next(i)
		_, ws := p.OutEdges(i)
		for c := i; c < j; c++ {
			copy(w[wOff[c]:wOff[c+1]], ws)
		}
		i = j
	}
	return csr{off: p.OutOff, wOff: wOff, row: lead, ids: p.OutTo, w: w}
}

// uniform reports whether every weight of a run carries the same bits.
func uniform(ws []float64) bool {
	for _, w := range ws {
		if math.Float64bits(w) != math.Float64bits(ws[0]) {
			return false
		}
	}
	return true
}

// OutEdges returns cluster c's out-targets, strictly increasing, and their
// weights, with InEdges' contract: len(ws) == len(tos), or 1 for a broadcast
// row (WeightMask). A cluster whose out-row is bit-equal to its
// predecessor's gets the same id slice, so one pointer test finds a repeated
// row. The slices alias the PCN's CSR or the view's storage and are strictly
// read-only.
func (s *Symmetric) OutEdges(c int) (tos []int32, ws []float64) {
	return s.out.edges(c)
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
