package curve

import "snnmap/internal/geom"

// Hilbert is the Hilbert space-filling curve (§4.2). On square meshes whose
// side is a power of two it is the classical discrete Hilbert curve; on any
// other rectangle it falls back to the generalized construction (Appendix A,
// after Rong et al.), which preserves the locality property on arbitrary
// sizes.
type Hilbert struct{}

// Name implements Curve.
func (Hilbert) Name() string { return "hilbert" }

// Points implements Curve.
func (Hilbert) Points(n, m int) []geom.Point {
	checkMesh(n, m)
	if n == m && isPow2(n) {
		return hilbertSquare(n)
	}
	return generalizedHilbert(n, m)
}

func isPow2(v int) bool { return v > 0 && v&(v-1) == 0 }

// hilbertSquare enumerates the classical Hilbert curve on an n×n mesh,
// n a power of two, using the standard bit-twiddling d→(x,y) conversion.
func hilbertSquare(n int) []geom.Point {
	pts := make([]geom.Point, n*n)
	for d := range pts {
		x, y := hilbertD2XY(n, d)
		pts[d] = geom.Point{X: x, Y: y}
	}
	return pts
}

// hilbertD2XY converts a distance along the curve to mesh coordinates for an
// n×n Hilbert curve (n a power of two).
func hilbertD2XY(n, d int) (x, y int) {
	t := d
	for s := 1; s < n; s *= 2 {
		rx := 1 & (t / 2)
		ry := 1 & (t ^ rx)
		// Rotate the quadrant.
		if ry == 0 {
			if rx == 1 {
				x = s - 1 - x
				y = s - 1 - y
			}
			x, y = y, x
		}
		x += s * rx
		y += s * ry
		t /= 4
	}
	return x, y
}

// generalizedHilbert produces a Hilbert-like locality-preserving visit order
// for an arbitrary n×m rectangle. It is the recursive "gilbert" construction:
// the rectangle is split along its major axis into two or three sub-blocks
// that are filled by recursive curves whose entry and exit points chain
// head-to-tail, so consecutive sequence indices are always mesh neighbors.
func generalizedHilbert(n, m int) []geom.Point {
	pts := make([]geom.Point, 0, n*m)
	g := &gilbertGen{out: &pts}
	// Start along the longer dimension, as the construction requires.
	// Axis vectors are expressed in (row, col) space.
	if m >= n {
		g.gen(0, 0, 0, m, n, 0)
	} else {
		g.gen(0, 0, n, 0, 0, m)
	}
	return pts
}

type gilbertGen struct {
	out *[]geom.Point
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
			*g.out = append(*g.out, geom.Point{X: x, Y: y})
			x += dax
			y += day
		}
		return
	}
	if w == 1 {
		// Trivial column.
		for i := 0; i < h; i++ {
			*g.out = append(*g.out, geom.Point{X: x, Y: y})
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
