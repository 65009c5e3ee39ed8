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

// Points implements Curve. It walks the recursive construction; the direct
// At/Index arithmetic below is validated against this walk, which stays the
// equivalence oracle (TestHilbertAtMatchesPoints, FuzzCurveIndex).
func (Hilbert) Points(n, m int) []geom.Point {
	checkMesh(n, m)
	if n == m && isPow2(n) {
		return hilbertSquare(n)
	}
	return generalizedHilbert(n, m)
}

// At implements Curve by direct index arithmetic: the classical bit-twiddled
// d→(x,y) conversion on power-of-two squares, and an iterative descent of the
// generalized construction's split tree on arbitrary rectangles. O(log(n*m))
// per call, no allocation.
func (Hilbert) At(n, m, d int) geom.Point {
	checkIndex(n, m, d)
	if n == m && isPow2(n) {
		x, y := hilbertD2XY(n, d)
		return geom.Point{X: x, Y: y}
	}
	return gilbertAt(n, m, d)
}

// Index implements Curve, inverting At with the same two fast paths.
func (Hilbert) Index(n, m int, p geom.Point) int {
	checkPoint(n, m, p)
	if n == m && isPow2(n) {
		return hilbertXY2D(n, p.X, p.Y)
	}
	return gilbertIndex(n, m, p)
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

// hilbertXY2D is the inverse of hilbertD2XY: mesh coordinates to distance
// along the curve for an n×n Hilbert curve (n a power of two).
func hilbertXY2D(n, x, y int) int {
	d := 0
	for s := n / 2; s > 0; s /= 2 {
		rx, ry := 0, 0
		if x&s > 0 {
			rx = 1
		}
		if y&s > 0 {
			ry = 1
		}
		d += s * s * ((3 * rx) ^ ry)
		// Rotate the quadrant. Flipping against n-1 rather than s-1 also
		// complements already-consumed high bits, but those are never
		// examined again by the descending loop.
		if ry == 0 {
			if rx == 1 {
				x = n - 1 - x
				y = n - 1 - y
			}
			x, y = y, x
		}
	}
	return d
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

// The iterative descent below replaces the recursive walk for single-cell
// queries. Every block the recursion visits is an axis-aligned rectangle (the
// initial axis vectors are axis-aligned and halving/negation preserve that),
// and each recursive call emits exactly w*h cells, so a sequence index can be
// routed to the right sub-block by pure size arithmetic — and a position by
// comparing its coordinates along the block's major/minor unit directions.
// Both loops recompute the split (including the even-step parity adjustments)
// with the same expressions as gilbertGen.gen, keeping them bit-identical to
// the recursive oracle.

// gilbertAt returns cell d of the generalized-Hilbert order on an n×m
// rectangle by iteratively descending into the sub-block containing d.
func gilbertAt(n, m, d int) geom.Point {
	var x, y, ax, ay, bx, by int
	if m >= n {
		ax, ay, bx, by = 0, m, n, 0
	} else {
		ax, ay, bx, by = n, 0, 0, m
	}
	for {
		w := geom.Abs(ax + ay)
		h := geom.Abs(bx + by)
		dax, day := sgn(ax), sgn(ay)
		dbx, dby := sgn(bx), sgn(by)
		if h == 1 {
			return geom.Point{X: x + dax*d, Y: y + day*d}
		}
		if w == 1 {
			return geom.Point{X: x + dbx*d, Y: y + dby*d}
		}
		ax2, ay2 := ax/2, ay/2
		bx2, by2 := bx/2, by/2
		w2 := geom.Abs(ax2 + ay2)
		h2 := geom.Abs(bx2 + by2)
		if 2*w > 3*h {
			if w2%2 != 0 && w > 2 {
				ax2 += dax
				ay2 += day
				w2 = geom.Abs(ax2 + ay2)
			}
			// Long case: two blocks of w2*h and (w-w2)*h cells.
			if d < w2*h {
				ax, ay = ax2, ay2
			} else {
				d -= w2 * h
				x, y = x+ax2, y+ay2
				ax, ay = ax-ax2, ay-ay2
			}
			continue
		}
		if h2%2 != 0 && h > 2 {
			bx2 += dbx
			by2 += dby
			h2 = geom.Abs(bx2 + by2)
		}
		// Standard case: blocks of h2*w2, w*(h-h2) and h2*(w-w2) cells.
		if d < h2*w2 {
			ax, ay, bx, by = bx2, by2, ax2, ay2
		} else if d < h2*w2+w*(h-h2) {
			d -= h2 * w2
			x, y = x+bx2, y+by2
			bx, by = bx-bx2, by-by2
		} else {
			d -= h2*w2 + w*(h-h2)
			x, y = x+(ax-dax)+(bx2-dbx), y+(ay-day)+(by2-dby)
			ax, ay, bx, by = -bx2, -by2, -(ax - ax2), -(ay - ay2)
		}
	}
}

// gilbertIndex inverts gilbertAt: at each level the queried position's
// coordinates along the block's unit directions decide which sub-block holds
// it, and the sizes of the blocks before it accumulate into the index.
func gilbertIndex(n, m int, p geom.Point) int {
	var x, y, ax, ay, bx, by int
	if m >= n {
		ax, ay, bx, by = 0, m, n, 0
	} else {
		ax, ay, bx, by = n, 0, 0, m
	}
	idx := 0
	for {
		w := geom.Abs(ax + ay)
		h := geom.Abs(bx + by)
		dax, day := sgn(ax), sgn(ay)
		dbx, dby := sgn(bx), sgn(by)
		if h == 1 {
			return idx + dax*(p.X-x) + day*(p.Y-y)
		}
		if w == 1 {
			return idx + dbx*(p.X-x) + dby*(p.Y-y)
		}
		ax2, ay2 := ax/2, ay/2
		bx2, by2 := bx/2, by/2
		w2 := geom.Abs(ax2 + ay2)
		h2 := geom.Abs(bx2 + by2)
		// Position along the major (ia ∈ [0,w)) and minor (ib ∈ [0,h)) axes.
		ia := dax*(p.X-x) + day*(p.Y-y)
		ib := dbx*(p.X-x) + dby*(p.Y-y)
		if 2*w > 3*h {
			if w2%2 != 0 && w > 2 {
				ax2 += dax
				ay2 += day
				w2 = geom.Abs(ax2 + ay2)
			}
			if ia < w2 {
				ax, ay = ax2, ay2
			} else {
				idx += w2 * h
				x, y = x+ax2, y+ay2
				ax, ay = ax-ax2, ay-ay2
			}
			continue
		}
		if h2%2 != 0 && h > 2 {
			bx2 += dbx
			by2 += dby
			h2 = geom.Abs(bx2 + by2)
		}
		// First block spans ib<h2, ia<w2; second ib>=h2; third ib<h2, ia>=w2.
		if ib < h2 && ia < w2 {
			ax, ay, bx, by = bx2, by2, ax2, ay2
		} else if ib >= h2 {
			idx += h2 * w2
			x, y = x+bx2, y+by2
			bx, by = bx-bx2, by-by2
		} else {
			idx += h2*w2 + w*(h-h2)
			x, y = x+(ax-dax)+(bx2-dbx), y+(ay-day)+(by2-dby)
			ax, ay, bx, by = -bx2, -by2, -(ax - ax2), -(ay - ay2)
		}
	}
}
