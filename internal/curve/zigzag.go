package curve

import "snnmap/internal/geom"

// ZigZag is the boustrophedon (snake) scan used as a comparison curve in
// Figure 6: row 0 is traversed left to right, row 1 right to left, and so
// on. Consecutive sequence indices are always mesh neighbors, but indices a
// full row apart can map to opposite mesh edges, which is exactly the
// long-distance failure mode the paper's heatmap analysis exposes.
type ZigZag struct{}

// Name implements Curve.
func (ZigZag) Name() string { return "zigzag" }

// Points implements Curve.
func (ZigZag) Points(n, m int) []geom.Point {
	checkMesh(n, m)
	pts := make([]geom.Point, 0, n*m)
	for row := 0; row < n; row++ {
		if row%2 == 0 {
			for col := 0; col < m; col++ {
				pts = append(pts, geom.Point{X: row, Y: col})
			}
		} else {
			for col := m - 1; col >= 0; col-- {
				pts = append(pts, geom.Point{X: row, Y: col})
			}
		}
	}
	return pts
}
