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
