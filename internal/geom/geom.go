// Package geom provides the small geometric vocabulary shared by the whole
// library: integer points on the 2D core mesh, rectangles, Manhattan
// distance, and the four mesh directions.
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

// Add returns p translated by q.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Sub returns the vector from q to p.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

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

// Delta returns the unit displacement for the direction (Eq. 29).
func (d Dir) Delta() Point {
	switch d {
	case Up:
		return Point{-1, 0}
	case Down:
		return Point{1, 0}
	case Right:
		return Point{0, 1}
	case Left:
		return Point{0, -1}
	}
	panic(fmt.Sprintf("geom: invalid direction %d", d))
}

// Opposite returns the reverse direction.
func (d Dir) Opposite() Dir {
	switch d {
	case Up:
		return Down
	case Down:
		return Up
	case Right:
		return Left
	case Left:
		return Right
	}
	panic(fmt.Sprintf("geom: invalid direction %d", d))
}

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

// Rect is a half-open axis-aligned rectangle of mesh cells: rows
// [MinX, MaxX), columns [MinY, MaxY).
type Rect struct {
	MinX, MinY, MaxX, MaxY int
}

// RectFromSize returns the rectangle covering an n×m mesh anchored at the
// origin.
func RectFromSize(n, m int) Rect { return Rect{0, 0, n, m} }

// Width returns the number of columns spanned.
func (r Rect) Width() int { return r.MaxY - r.MinY }

// Height returns the number of rows spanned.
func (r Rect) Height() int { return r.MaxX - r.MinX }

// Area returns the number of cells in the rectangle.
func (r Rect) Area() int { return r.Width() * r.Height() }

// Contains reports whether p lies inside the rectangle.
func (r Rect) Contains(p Point) bool {
	return p.X >= r.MinX && p.X < r.MaxX && p.Y >= r.MinY && p.Y < r.MaxY
}

// Bounding returns the smallest rectangle containing both points.
func Bounding(p, q Point) Rect {
	r := Rect{MinX: p.X, MinY: p.Y, MaxX: p.X + 1, MaxY: p.Y + 1}
	if q.X < r.MinX {
		r.MinX = q.X
	}
	if q.X >= r.MaxX {
		r.MaxX = q.X + 1
	}
	if q.Y < r.MinY {
		r.MinY = q.Y
	}
	if q.Y >= r.MaxY {
		r.MaxY = q.Y + 1
	}
	return r
}
