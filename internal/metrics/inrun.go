package metrics

import (
	"encoding/binary"
	"math"
	"slices"

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
	// from is the in-run the state describes and uses how many consecutive
	// targets have read it.
	from []int32
	uses int

	// R is h×w cells from mesh cell (x0, y0); the sources' bounding box is
	// rows sx0..sx1, columns sy0..sy1 of R.
	x0, y0             int32
	h, w               int
	sx0, sx1, sy0, sy1 int
	// buf holds the injections (h·w) and then F_0..F_3 (h·w each), all
	// row-major over R in mesh orientation; it grows geometrically.
	buf []float64
}

// stretch returns the end of the stretch of targets t.. of the chunk ending
// at end that are added from the run's stencil, or t when t starts none, and
// the box cells that add covers for the stretch's targets (sides). A
// stretch starts at a run's second target: the in-run (from, ws) is broadcast
// with a finite non-negative weight (what pcn.PCN.Validate asks of every
// edge) and the same slice the previous target read. It holds the targets
// from t on that read the same slice with the same weight consecutively in
// the chunk — targets with one source set share the slice whatever their
// weights — and is taken only when the sources' bounding box holds at most
// 4·|S| cells and R at most 4·(|S|+|T|), so building never costs much more
// than sweeping the targets one by one. A run met once costs only propagate,
// and a run yields at most one stretch; stretch sets R for it.
func (r *runFields) stretch(t, end int, from []int32, ws []float64, in *pcn.Symmetric, pos []cellXY) (int, int64) {
	switch {
	case len(ws) != 1 || !(ws[0] >= 0 && ws[0] <= math.MaxFloat64):
		r.from = nil
		return t, 0
	case len(r.from) != len(from) || &r.from[0] != &from[0]:
		r.from, r.uses = from, 1
		return t, 0
	}
	if r.uses++; r.uses != 2 {
		return t, 0
	}
	p := pos[from[0]]
	sx0, sx1, sy0, sy1 := p.x, p.x, p.y, p.y
	for _, f := range from[1:] {
		q := pos[f]
		sx0, sx1, sy0, sy1 = min(sx0, q.x), max(sx1, q.x), min(sy0, q.y), max(sy1, q.y)
	}
	n := len(from)
	if int(sx1-sx0+1)*int(sy1-sy0+1) > 4*n {
		return t, 0
	}
	x0, x1, y0, y1 := sx0, sx1, sy0, sy1
	e, cells := t, int64(0)
	for ; e < end; e++ {
		if f, fw := in.InEdges(e); len(f) != n || &f[0] != &from[0] || len(fw) != 1 || fw[0] != ws[0] {
			break
		}
		q := pos[e]
		x0, x1, y0, y1 = min(x0, q.x), max(x1, q.x), min(y0, q.y), max(y1, q.y)
		xn, xf := sides(int(q.x), int(sx0), int(sx1))
		yn, yf := sides(int(q.y), int(sy0), int(sy1))
		cells += int64(xn+xf) * int64(yn+yf)
	}
	h, w := int(x1-x0)+1, int(y1-y0)+1
	if h*w > 4*(n+e-t) {
		return t, 0
	}
	r.x0, r.y0, r.h, r.w = x0, y0, h, w
	r.sx0, r.sx1, r.sy0, r.sy1 = int(sx0-x0), int(sx1-x0), int(sy0-y0), int(sy1-y0)
	return e, cells
}

// build fills the injections and the four fields for the run's sources over
// the R that stretch set.
func (r *runFields) build(from []int32, wt float64, pos []cellXY) {
	hw := r.h * r.w
	if 5*hw > cap(r.buf) {
		r.buf = make([]float64, max(5*hw, 2*cap(r.buf)))
	}
	r.buf = r.buf[:5*hw]
	inj := r.buf[:hw]
	clear(inj)
	for _, f := range from {
		q := pos[f]
		inj[int(q.x-r.x0)*r.w+int(q.y-r.y0)] += wt
	}
	for q := range 4 {
		r.fill(q)
	}
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

// add adds to the stencil st (h×w over R) what propagate adds for a target at
// cell t — Σ_k w·Expe(·, s_k, t) over the run's sources — quadrant by
// quadrant in index order. Quadrant q's box spans t's far side along x when
// q&2 != 0, else its near side, and along y likewise by q&1 (sides); an
// empty side leaves the quadrant empty, as propagate does.
func (r *runFields) add(st []float64, t cellXY) {
	tx, ty := int(t.x-r.x0), int(t.y-r.y0)
	xn, xf := sides(tx, r.sx0, r.sx1)
	yn, yf := sides(ty, r.sy0, r.sy1)
	for q := range 4 {
		ax, nx, ay, ny := r.sx0, xn, r.sy0, yn
		if q&2 != 0 {
			ax, nx = r.sx1, xf
		}
		if q&1 != 0 {
			ay, ny = r.sy1, yf
		}
		if nx > 0 && ny > 0 {
			r.quadrant(st, q, tx, ty, ax, ay)
		}
	}
}

// sides returns how many lines along one axis the boxes of a target at t
// cover over sources at lo..hi: on the near side, from lo to t's own row or
// column, and on the far side, from t to hi; none where no source lies. The
// target's four boxes cover (near+far) lines along x times those along y.
func sides(t, lo, hi int) (near, far int) {
	if lo <= t {
		near = t - lo + 1
	}
	if hi > t {
		far = hi - t + 1
	}
	return near, far
}

// quadrant adds quadrant q's box, far corner (ax, ay) and target (tx, ty) in
// R: the interior straight from F_q, then t's column, t's row and t by
// sweepBox's straight-on rule. Only the above quadrants (q&2 == 0) hold
// sources on t's row, only the left ones (q&1 == 0) on t's column, and only
// quadrant 0 one on t.
func (r *runFields) quadrant(st []float64, q, tx, ty, ax, ay int) {
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
	for x := xlo; x < xhi; x++ {
		src, dst := f[x*w+ylo:x*w+yhi], st[x*w+ylo:x*w+yhi]
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
		st[x*w+ty] += col
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
		st[tx*w+y] += row
	}
	at := 0.0
	if q == 0 {
		at = inj[tx*w+ty]
	}
	st[tx*w+ty] += at + col + row
}

// stencil adds the stretch of targets t..e-1, which read the in-run (from,
// wt) over the R that stretch set, to grid (row-major, cols wide) and reports
// whether the memo held the stencil.
//
// The targets are summed into a zeroed h×w stencil in target order, which is
// then added to grid at R's offset: each grid cell receives the stretch's sum
// in one add, and cells no box covers add +0.0. Expe is translation
// invariant, so the stencil is a function of its key alone (stencilKey): a
// stretch with the key of one built before in this worker's congestionGrid
// call adds the stored stencil, the bits a miss computes from the same
// operands in the same order. The memo keeps stencils while they hold at most
// a quarter of len(grid) floats in all; with memo false every stretch misses.
func (s *sweep) stencil(grid []float64, cols, t, e int, from []int32, wt float64, pos []cellXY, memo bool) bool {
	r := &s.run
	hw := r.h * r.w
	var st []float64
	hit := false
	if memo {
		s.key = r.stencilKey(s.key[:0], t, e, from, wt, pos)
		st, hit = s.memo[string(s.key)]
	}
	if !hit {
		if hw > cap(s.st) {
			s.st = make([]float64, max(hw, 2*cap(s.st)))
		}
		st = s.st[:hw]
		clear(st)
		r.build(from, wt, pos)
		for u := t; u < e; u++ {
			r.add(st, pos[u])
		}
		if memo && s.held+hw <= len(grid)/4 {
			st = slices.Clone(st)
			if s.memo == nil {
				s.memo = make(map[string][]float64)
			}
			s.memo[string(s.key)] = st
			s.held += hw
		}
	}
	base := int(r.x0)*cols + int(r.y0)
	for x := range r.h {
		dst := grid[base+x*cols : base+x*cols+r.w]
		for i, v := range st[x*r.w : x*r.w+r.w] {
			dst[i] += v
		}
	}
	s.touch(int(r.x0), int(r.x0)+r.h-1)
	return hit
}

// stencilKey appends the stretch's key to b: h, w, |S|, the weight's bits,
// then the sources' cells in slice order and the targets' cells in target
// order, each as its row-major index in R.
func (r *runFields) stencilKey(b []byte, t, e int, from []int32, wt float64, pos []cellXY) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(r.h))
	b = binary.LittleEndian.AppendUint32(b, uint32(r.w))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(from)))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(wt))
	cell := func(p cellXY) uint32 { return uint32(int(p.x-r.x0)*r.w + int(p.y-r.y0)) }
	for _, f := range from {
		b = binary.LittleEndian.AppendUint32(b, cell(pos[f]))
	}
	for u := t; u < e; u++ {
		b = binary.LittleEndian.AppendUint32(b, cell(pos[u]))
	}
	return b
}
