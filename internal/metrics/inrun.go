package metrics

import (
	"math"

	"snnmap/internal/pcn"
)

// runFields carries one shared in-run to every target that reads it: a dense
// layer's targets all read the same broadcast in-row (pcn.Symmetric.InEdges),
// and of the DP that propagate sweeps per target most cells do not depend on
// the target at all.
//
// Take a cell of quadrant q's box off t's row and column. Its DP value sums
// only the sources behind it, toward q's far corner, and every such source
// lies strictly inside quadrant q of t: the value is the interior recurrence
// (inj + up·½) + left·½ over the run's sources, whatever t is. So four fields
// F_q, one per sweep direction over a rectangle R holding the run's sources
// and targets, give every target its interior cells bit for bit; the target
// itself runs the straight-on rule only along its own row and column and at
// t, on the same operands in the same order as sweepBox (DESIGN.md §10).
//
// Each box is zero-extended to the sources' bounding box: a cell outside a
// target's own box has no source of its quadrant behind it, so its field is
// +0.0 and adding it leaves every non-negative grid cell's bits as they were.
type runFields struct {
	// from is the in-run the state describes, uses how many consecutive
	// targets have read it, ok whether the fields are built for it and end
	// the first target after the stretch they cover.
	from []int32
	uses int
	ok   bool
	end  int

	// R is h×w cells from mesh cell (x0, y0); the sources' bounding box is
	// rows sx0..sx1, columns sy0..sy1.
	x0, y0             int32
	h, w               int
	sx0, sx1, sy0, sy1 int32
	// buf holds the injections (h·w) and then F_0..F_3 (h·w each), all
	// row-major over R in mesh orientation; it grows geometrically.
	buf []float64
}

// use reports whether target t of the chunk ending at end, reading the in-run
// (from, ws), is added from the run's fields: the run is broadcast with a
// finite non-negative weight (what pcn.PCN.Validate asks of every edge), the
// same slice the previous target read, and within the stretch of targets the
// fields were built for. The fields are built on the run's second target, so
// a run met once costs only propagate, and only when the sources' bounding
// box holds at most 4·|S| cells and R at most 4·(|S|+|T|), T the targets from
// here on that read the same slice with the same weight — targets with one
// source set share the slice whatever their weights — consecutively in the
// chunk, so building never costs much more than sweeping them one by one.
func (r *runFields) use(t, end int, from []int32, ws []float64, in *pcn.Symmetric, pos []cellXY) bool {
	switch {
	case len(ws) != 1 || !(ws[0] >= 0 && ws[0] <= math.MaxFloat64):
		r.from = nil
		return false
	case len(r.from) != len(from) || &r.from[0] != &from[0]:
		r.from, r.uses, r.ok = from, 1, false
		return false
	}
	if r.uses++; r.uses == 2 {
		r.ok = r.build(t, end, from, ws[0], in, pos)
	}
	return r.ok && t < r.end
}

// build fills the injections and the four fields for the run's sources from
// target t on, or reports false when a bounding box breaks use's bounds.
func (r *runFields) build(t, end int, from []int32, wt float64, in *pcn.Symmetric, pos []cellXY) bool {
	p := pos[from[0]]
	sx0, sx1, sy0, sy1 := p.x, p.x, p.y, p.y
	for _, f := range from[1:] {
		q := pos[f]
		sx0, sx1, sy0, sy1 = min(sx0, q.x), max(sx1, q.x), min(sy0, q.y), max(sy1, q.y)
	}
	n := len(from)
	if int(sx1-sx0+1)*int(sy1-sy0+1) > 4*n {
		return false
	}
	x0, x1, y0, y1 := sx0, sx1, sy0, sy1
	r.end = t
	for ; r.end < end; r.end++ {
		if f, fw := in.InEdges(r.end); len(f) != n || &f[0] != &from[0] || len(fw) != 1 || fw[0] != wt {
			break
		}
		q := pos[r.end]
		x0, x1, y0, y1 = min(x0, q.x), max(x1, q.x), min(y0, q.y), max(y1, q.y)
	}
	h, w := int(x1-x0)+1, int(y1-y0)+1
	if h*w > 4*(n+r.end-t) {
		return false
	}
	r.x0, r.y0, r.h, r.w = x0, y0, h, w
	r.sx0, r.sx1, r.sy0, r.sy1 = sx0, sx1, sy0, sy1
	size := 5 * h * w
	if size > cap(r.buf) {
		r.buf = make([]float64, max(size, 2*cap(r.buf)))
	}
	r.buf = r.buf[:size]
	inj := r.buf[:h*w]
	clear(inj)
	for _, f := range from {
		q := pos[f]
		inj[int(q.x-x0)*w+int(q.y-y0)] += wt
	}
	for q := range 4 {
		r.fill(q)
	}
	return true
}

// fill sweeps F_q over R toward quadrant q's target side — rows down for the
// above quadrants (q&2 == 0), columns right for the left ones (q&1 == 0) —
// by the interior recurrence. Its first row has none above: like sweepBox's
// row 0 it reads itself × 0.
func (r *runFields) fill(q int) {
	h, w := r.h, r.w
	inj, f := r.buf[:h*w], r.buf[(q+1)*h*w:(q+2)*h*w]
	for i := range h {
		x, prev := i, i-1
		if q&2 != 0 {
			x, prev = h-1-i, h-i
		}
		row, in := f[x*w:x*w+w], inj[x*w:x*w+w]
		up, half := in, 0.0
		if i > 0 {
			up, half = f[prev*w:prev*w+w], 0.5
		}
		left := 0.0
		if q&1 == 0 {
			for v := range w {
				e := in[v] + up[v]*half + left*0.5
				row[v], left = e, e
			}
			continue
		}
		for v := w - 1; v >= 0; v-- {
			e := in[v] + up[v]*half + left*0.5
			row[v], left = e, e
		}
	}
}

// add adds to grid (row-major, cols wide) what propagate adds for a target at
// cell t — Σ_k w·Expe(·, s_k, t) over the run's sources — quadrant by
// quadrant in index order, and returns the box cells it covered.
func (r *runFields) add(grid []float64, cols int, t cellXY) int64 {
	var cells int64
	for q := range 4 {
		// The box's far corner (ax, ay) in R; a side with no source beyond
		// t's row or column leaves the quadrant empty, as propagate does.
		ax, ay := r.sx0, r.sy0
		if q&2 != 0 {
			ax = r.sx1
		}
		if q&1 != 0 {
			ay = r.sy1
		}
		if q&2 == 0 && ax > t.x || q&2 != 0 && ax <= t.x || q&1 == 0 && ay > t.y || q&1 != 0 && ay <= t.y {
			continue
		}
		cells += r.quadrant(grid, cols, q, int(t.x-r.x0), int(t.y-r.y0), int(ax-r.x0), int(ay-r.y0))
	}
	return cells
}

// quadrant adds quadrant q's box, far corner (ax, ay) and target (tx, ty) in
// R: the interior straight from F_q, then t's column, t's row and t by
// sweepBox's straight-on rule. Only the above quadrants (q&2 == 0) hold
// sources on t's row, only the left ones (q&1 == 0) on t's column, and only
// quadrant 0 one on t.
func (r *runFields) quadrant(grid []float64, cols, q, tx, ty, ax, ay int) int64 {
	w, hw := r.w, r.h*r.w
	inj, f := r.buf[:hw], r.buf[(q+1)*hw:(q+2)*hw]
	xs, ys := 1, 1 // steps toward t
	// The interior is rows xlo..xhi-1, columns ylo..yhi-1.
	xlo, xhi, ylo, yhi := ax, tx, ay, ty
	if q&2 != 0 {
		xs, xlo, xhi = -1, tx+1, ax+1
	}
	if q&1 != 0 {
		ys, ylo, yhi = -1, ty+1, ay+1
	}
	base := int(r.x0)*cols + int(r.y0) // grid index of R's cell (0, 0)
	for x := xlo; x < xhi; x++ {
		src := f[x*w+ylo : x*w+yhi]
		dst := grid[base+x*cols+ylo : base+x*cols+yhi]
		for i, e := range src {
			dst[i] += e
		}
	}
	col, row := 0.0, 0.0 // the last column and row cells before t
	for x := ax; x != tx; x += xs {
		in, left := 0.0, 0.0
		if q&1 == 0 {
			in = inj[x*w+ty]
		}
		if ay != ty {
			left = f[x*w+ty-ys]
		}
		col = in + col + left*0.5
		grid[base+x*cols+ty] += col
	}
	for y := ay; y != ty; y += ys {
		in, up := 0.0, 0.0
		if q&2 == 0 {
			in = inj[tx*w+y]
		}
		if ax != tx {
			up = f[(tx-xs)*w+y]
		}
		row = in + up*0.5 + row
		grid[base+tx*cols+y] += row
	}
	at := 0.0
	if q == 0 {
		at = inj[tx*w+ty]
	}
	grid[base+tx*cols+ty] += at + col + row
	dx, dy := max(ax-tx, tx-ax), max(ay-ty, ty-ay)
	return int64(dx+1) * int64(dy+1)
}
