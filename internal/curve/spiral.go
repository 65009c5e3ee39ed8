package curve

import "snnmap/internal/geom"

// Circle is the inward spiral ("circle") scan used as a comparison curve in
// Figure 6 (after Sahu & Chattopadhyay's NoC mapping survey): the curve
// walks the perimeter of the mesh clockwise and spirals toward the center.
// It keeps consecutive indices adjacent but places the two ends of the
// sequence maximally far apart, which penalizes feed-forward SNN dataflow.
type Circle struct{}

// Name implements Curve.
func (Circle) Name() string { return "circle" }

// ringSize returns the number of cells ring k of an n×m spiral contributes:
// the four perimeter segments Points emits, degenerating to a single row or
// column when the remaining rectangle is one cell thin.
func ringSize(n, m, k int) int {
	h, w := n-2*k, m-2*k
	if h == 1 {
		return w
	}
	if w == 1 {
		return h
	}
	return 2*w + 2*h - 4
}

// At implements Curve: rings are peeled by size until d falls inside one,
// then the in-ring offset is routed through the four perimeter segments
// (top row, right column, bottom row, left column) in emit order. O(min(n,m))
// per call.
func (Circle) At(n, m, d int) geom.Point {
	checkIndex(n, m, d)
	k := 0
	for {
		if s := ringSize(n, m, k); d < s {
			break
		} else {
			d -= s
			k++
		}
	}
	t, b := k, n-1-k
	l, r := k, m-1-k
	h, w := b-t+1, r-l+1
	if d < w {
		return geom.Point{X: t, Y: l + d}
	}
	d -= w
	if d < h-1 {
		return geom.Point{X: t + 1 + d, Y: r}
	}
	d -= h - 1
	if d < w-1 {
		return geom.Point{X: b, Y: r - 1 - d}
	}
	d -= w - 1
	return geom.Point{X: b - 1 - d, Y: l}
}

// Index implements Curve: the ring is the point's distance to the nearest
// mesh edge; every ring before it is full (2w+2h-4 cells), giving the closed
// form n*m - (n-2k)*(m-2k) for the cells already emitted.
func (Circle) Index(n, m int, p geom.Point) int {
	checkPoint(n, m, p)
	k := p.X
	for _, v := range []int{p.Y, n - 1 - p.X, m - 1 - p.Y} {
		if v < k {
			k = v
		}
	}
	idx := n*m - (n-2*k)*(m-2*k)
	t, b := k, n-1-k
	l, r := k, m-1-k
	h, w := b-t+1, r-l+1
	switch {
	case p.X == t:
		return idx + p.Y - l
	case p.Y == r:
		return idx + w + p.X - t - 1
	case p.X == b:
		return idx + w + h - 1 + r - 1 - p.Y
	default:
		return idx + 2*w + h - 2 + b - 1 - p.X
	}
}

// Points implements Curve.
func (Circle) Points(n, m int) []geom.Point {
	checkMesh(n, m)
	pts := make([]geom.Point, 0, n*m)
	top, bottom := 0, n-1
	left, right := 0, m-1
	for top <= bottom && left <= right {
		for col := left; col <= right; col++ {
			pts = append(pts, geom.Point{X: top, Y: col})
		}
		top++
		for row := top; row <= bottom; row++ {
			pts = append(pts, geom.Point{X: row, Y: right})
		}
		right--
		if top <= bottom {
			for col := right; col >= left; col-- {
				pts = append(pts, geom.Point{X: bottom, Y: col})
			}
			bottom--
		}
		if left <= right {
			for row := bottom; row >= top; row-- {
				pts = append(pts, geom.Point{X: row, Y: left})
			}
			left++
		}
	}
	return pts
}
