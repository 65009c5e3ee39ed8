// Package geom provides the small geometric vocabulary shared by the whole
// library: integer points on the 2D core mesh, Manhattan distance, and the
// four mesh directions.
//
// Coordinates follow the paper's convention (§3.1): a mesh of size (N, M)
// has N rows and M columns; the core at the top-left corner is (0,0) and the
// bottom-right corner is (N-1, M-1). A Point's X is the row index and Y is
// the column index.
package geom

import "fmt"

// Point is an integer coordinate on the core mesh. X is the row, Y the
// column.
type Point struct {
	X, Y int
}

// L1 returns the Manhattan norm |x| + |y| of the point treated as a vector.
func (p Point) L1() int { return Abs(p.X) + Abs(p.Y) }

// L2Sq returns the squared Euclidean norm x² + y².
func (p Point) L2Sq() int { return p.X*p.X + p.Y*p.Y }

// String implements fmt.Stringer.
func (p Point) String() string { return fmt.Sprintf("(%d,%d)", p.X, p.Y) }

// Manhattan returns the L1 distance between two points, i.e. the number of
// mesh hops between the routers at p and q under dimension-ordered routing.
func Manhattan(p, q Point) int { return Abs(p.X-q.X) + Abs(p.Y-q.Y) }

// Abs returns the absolute value of v.
func Abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// Dir identifies one of the four mesh directions. The numeric values match
// Algorithm 3 in the paper (UP, DOWN, RIGHT, LEFT = 0, 1, 2, 3).
type Dir uint8

// Mesh directions. UP decreases the row index, DOWN increases it, RIGHT
// increases the column index and LEFT decreases it, matching Eq. 29.
const (
	Up Dir = iota
	Down
	Right
	Left
	NumDirs = 4
)

// String implements fmt.Stringer.
func (d Dir) String() string {
	switch d {
	case Up:
		return "up"
	case Down:
		return "down"
	case Right:
		return "right"
	case Left:
		return "left"
	}
	return fmt.Sprintf("Dir(%d)", uint8(d))
}
