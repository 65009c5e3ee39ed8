// Package curve implements the space-filling curves studied in §4.2–4.3 and
// Appendix A of the paper: the Hilbert curve (on power-of-two squares and,
// via a generalized construction, on arbitrary rectangles), and the ZigZag
// and Circle curves used as comparison points in Figure 6.
//
// A space-filling curve visits every cell of an n×m mesh exactly once; the
// mapping from sequence index to mesh position is the Hilbert function of
// Eq. 16. Curves are deterministic and allocation is a single slice.
package curve

import (
	"fmt"

	"snnmap/internal/geom"
)

// Curve enumerates the cells of a rectangular mesh in a fixed visit order.
type Curve interface {
	// Name returns the curve's identifier (e.g. "hilbert"), used in reports
	// and as the curve's part of a cache key.
	Name() string
	// Points returns the mesh positions in visit order for an n-row,
	// m-column mesh. The result has exactly n*m entries and is a
	// permutation of all cells. It panics if n or m is not positive.
	Points(n, m int) []geom.Point
}

// IsPermutation reports whether pts visits every cell of the n×m mesh
// exactly once. It is used by tests and by callers validating custom curves.
func IsPermutation(pts []geom.Point, n, m int) bool {
	if len(pts) != n*m {
		return false
	}
	seen := make([]bool, n*m)
	for _, p := range pts {
		if p.X < 0 || p.X >= n || p.Y < 0 || p.Y >= m {
			return false
		}
		idx := p.X*m + p.Y
		if seen[idx] {
			return false
		}
		seen[idx] = true
	}
	return true
}

// TotalStepLength returns the sum of Manhattan distances between consecutive
// points of the visit order. A curve whose consecutive cells are always mesh
// neighbors (Hilbert, ZigZag) has total step length n*m-1.
func TotalStepLength(pts []geom.Point) int {
	total := 0
	for i := 1; i < len(pts); i++ {
		total += geom.Manhattan(pts[i-1], pts[i])
	}
	return total
}

func checkMesh(n, m int) {
	if n <= 0 || m <= 0 {
		panic(fmt.Sprintf("curve: invalid mesh size %dx%d", n, m))
	}
}
