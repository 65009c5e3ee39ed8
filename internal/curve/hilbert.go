package curve

import "snnmap/internal/geom"

// Hilbert is the Hilbert space-filling curve (§4.2), built for every mesh
// by the generalized construction of Appendix A (after Rong et al.): the
// recursive "gilbert" curve, which preserves the locality property on
// arbitrary rectangles. Started along the rows on a square whose side is a
// power of two, it visits the cells in exactly the classical discrete Hilbert
// order.
type Hilbert struct{}

// Name implements Curve.
func (Hilbert) Name() string { return "hilbert" }

// Points implements Curve. The rectangle is split along its major axis into
// two or three sub-blocks that are filled by recursive curves whose entry and
// exit points chain head-to-tail, so consecutive sequence indices are always
// mesh neighbors. The curve starts along the longer side, along the columns
// on a square whose side is not a power of two, and along the rows on a
// power-of-two square. Axis vectors are in (row, col) space.
func (Hilbert) Points(n, m int) []geom.Point {
	checkMesh(n, m)
	g := &gilbertGen{out: make([]geom.Point, 0, n*m)}
	if m > n || (m == n && n&(n-1) != 0) {
		g.gen(0, 0, 0, m, n, 0)
	} else {
		g.gen(0, 0, n, 0, 0, m)
	}
	return g.out
}

type gilbertGen struct {
	out []geom.Point
}

func sgn(v int) int {
	switch {
	case v > 0:
		return 1
	case v < 0:
		return -1
	}
	return 0
}

// gen emits the cells of the parallelogram anchored at (x, y) with major
// axis vector (ax, ay) and minor axis vector (bx, by), in curve order.
func (g *gilbertGen) gen(x, y, ax, ay, bx, by int) {
	w := geom.Abs(ax + ay)
	h := geom.Abs(bx + by)
	dax, day := sgn(ax), sgn(ay) // unit major direction
	dbx, dby := sgn(bx), sgn(by) // unit minor direction

	if h == 1 {
		// Trivial row.
		for i := 0; i < w; i++ {
			g.out = append(g.out, geom.Point{X: x, Y: y})
			x += dax
			y += day
		}
		return
	}
	if w == 1 {
		// Trivial column.
		for i := 0; i < h; i++ {
			g.out = append(g.out, geom.Point{X: x, Y: y})
			x += dbx
			y += dby
		}
		return
	}

	ax2, ay2 := ax/2, ay/2
	bx2, by2 := bx/2, by/2
	w2 := geom.Abs(ax2 + ay2)
	h2 := geom.Abs(bx2 + by2)

	if 2*w > 3*h {
		if w2%2 != 0 && w > 2 {
			// Prefer even steps so the recursion chains cleanly.
			ax2 += dax
			ay2 += day
		}
		// Long case: split the rectangle in two along the major axis.
		g.gen(x, y, ax2, ay2, bx, by)
		g.gen(x+ax2, y+ay2, ax-ax2, ay-ay2, bx, by)
		return
	}

	if h2%2 != 0 && h > 2 {
		bx2 += dbx
		by2 += dby
	}
	// Standard case: one step up, one long horizontal step, one step down.
	g.gen(x, y, bx2, by2, ax2, ay2)
	g.gen(x+bx2, y+by2, ax, ay, bx-bx2, by-by2)
	g.gen(x+(ax-dax)+(bx2-dbx), y+(ay-day)+(by2-dby),
		-bx2, -by2, -(ax - ax2), -(ay - ay2))
}
