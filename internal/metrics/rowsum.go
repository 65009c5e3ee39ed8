package metrics

// rowTable sums one out-row's hop distances from any source cell in O(1): a
// dense layer's clusters all send to the next layer, so consecutive clusters
// read one shared out-row (pcn.Symmetric.OutEdges), and Eqs. 9–12 need of
// that row only Σd and max d.
//
// The table is a 2-D prefix sum of (n, Σx, Σy) over the row's bounding
// box: pre[i·(w+1)+j] covers the row's cells with x−x0 < i and y−y0 < j. A
// source cell splits the row into four quadrants, each read with at most
// four lookups, and on a quadrant the signs of x_s−x and y_s−y are fixed, so
// Σ|dx| and Σ|dy| are linear in the quadrant's sums. Max d is
// max over the four sign choices of ±(x_s−x) ± (y_s−y), read from the row's
// extremes of x+y and x−y. Everything is an exact integer.
type rowTable struct {
	// ids is the out-row the state describes, uses how many consecutive
	// clusters have read it, and ok whether the table below is built for it.
	ids  []int32
	uses int
	ok   bool

	x0, y0 int32
	h, w   int
	pre    []rowPrefix
	// sMin, sMax are the row's extremes of x+y; dMin, dMax those of x−y.
	sMin, sMax, dMin, dMax int32
}

// rowPrefix is one entry of the prefix table: the member count and the sums
// of x and y over the cells it covers.
type rowPrefix struct{ n, sx, sy int64 }

func (a rowPrefix) sub(b rowPrefix) rowPrefix {
	return rowPrefix{a.n - b.n, a.sx - b.sx, a.sy - b.sy}
}

// dist returns Σ(dx+dy) over a quadrant's cells from (x, y), where the
// quadrant fixes dx = ax·(x−x_k) and dy = ay·(y−y_k) with ax, ay = ±1.
func (a rowPrefix) dist(x, y, ax, ay int64) int64 {
	return ax*(a.n*x-a.sx) + ay*(a.n*y-a.sy)
}

// use reports whether the walk's next cluster, whose out-row is (ids, ws), is
// summed from the table: the row is broadcast (one weight), consecutive in id
// and the same slice the previous cluster of the walk read. The table is built on
// the row's second use, so a row met once costs only the walk, and only
// when the row's bounding box holds at most 4·n cells, so building it never
// costs much more than a walk of the row.
func (t *rowTable) use(ids []int32, ws []float64, pos []cellXY) bool {
	n := len(ids)
	switch {
	case n == 0 || len(ws) != 1 || int(ids[n-1]-ids[0]) != n-1:
		t.ids = nil
		return false
	case len(t.ids) != n || &t.ids[0] != &ids[0]:
		t.ids, t.uses, t.ok = ids, 1, false
		return false
	}
	if t.uses++; t.uses == 2 {
		t.ok = t.build(ids, pos)
	}
	return t.ok
}

// build fills the table for the row's cells, or reports false when their
// bounding box holds more than 4·n cells.
func (t *rowTable) build(ids []int32, pos []cellXY) bool {
	p := pos[ids[0]]
	x0, x1, y0, y1 := p.x, p.x, p.y, p.y
	t.sMin, t.sMax, t.dMin, t.dMax = p.x+p.y, p.x+p.y, p.x-p.y, p.x-p.y
	for _, id := range ids[1:] {
		q := pos[id]
		x0, x1, y0, y1 = min(x0, q.x), max(x1, q.x), min(y0, q.y), max(y1, q.y)
		t.sMin, t.sMax = min(t.sMin, q.x+q.y), max(t.sMax, q.x+q.y)
		t.dMin, t.dMax = min(t.dMin, q.x-q.y), max(t.dMax, q.x-q.y)
	}
	h, w := int(x1-x0)+1, int(y1-y0)+1
	if h*w > 4*len(ids) {
		return false
	}
	t.x0, t.y0, t.h, t.w = x0, y0, h, w
	stride := w + 1
	size := (h + 1) * stride
	if cap(t.pre) < size {
		t.pre = make([]rowPrefix, size)
	}
	t.pre = t.pre[:size]
	clear(t.pre)
	for _, id := range ids {
		q := pos[id]
		x, y := int64(q.x), int64(q.y)
		e := &t.pre[int(q.x-x0+1)*stride+int(q.y-y0+1)]
		e.n++
		e.sx += x
		e.sy += y
	}
	for i := 1; i <= h; i++ {
		for j := 1; j <= w; j++ {
			e, up, left, diag := &t.pre[i*stride+j], t.pre[(i-1)*stride+j], t.pre[i*stride+j-1], t.pre[(i-1)*stride+j-1]
			e.n += up.n + left.n - diag.n
			e.sx += up.sx + left.sx - diag.sx
			e.sy += up.sy + left.sy - diag.sy
		}
	}
	return true
}

// sums returns, over the table's row and from source cell s, Σd and max d,
// where d = |x_s−x| + |y_s−y|.
func (t *rowTable) sums(s cellXY) (sumD int64, maxD int) {
	stride := t.w + 1
	i := min(max(int(s.x-t.x0), 0), t.h)
	j := min(max(int(s.y-t.y0), 0), t.w)
	all := t.pre[t.h*stride+t.w]
	nw := t.pre[i*stride+j]           // x < x_s, y < y_s
	ne := t.pre[i*stride+t.w].sub(nw) // x < x_s, y ≥ y_s
	sw := t.pre[t.h*stride+j].sub(nw) // x ≥ x_s, y < y_s
	se := all.sub(nw).sub(ne).sub(sw) // x ≥ x_s, y ≥ y_s
	x, y := int64(s.x), int64(s.y)
	sumD = nw.dist(x, y, 1, 1) + ne.dist(x, y, 1, -1) + sw.dist(x, y, -1, 1) + se.dist(x, y, -1, -1)
	sp, dp := s.x+s.y, s.x-s.y
	maxD = int(max(sp-t.sMin, t.sMax-sp, dp-t.dMin, t.dMax-dp))
	return sumD, maxD
}
