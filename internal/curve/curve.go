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
	"sync"

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
	// At returns the mesh position at sequence index d of the n×m visit
	// order — Points(n, m)[d] without materializing the order. It is pure
	// arithmetic (no allocation, safe for concurrent use) so callers can
	// evaluate disjoint index ranges in parallel. It panics if the mesh is
	// invalid or d is outside [0, n*m).
	At(n, m, d int) geom.Point
	// Index is the inverse of At: the sequence index of position p in the
	// n×m visit order. Index(n, m, At(n, m, d)) == d for every d. It
	// panics if the mesh is invalid or p is outside it.
	Index(n, m int, p geom.Point) int
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

func checkIndex(n, m, d int) {
	checkMesh(n, m)
	if d < 0 || d >= n*m {
		panic(fmt.Sprintf("curve: sequence index %d outside %dx%d mesh", d, n, m))
	}
}

func checkPoint(n, m int, p geom.Point) {
	checkMesh(n, m)
	if p.X < 0 || p.X >= n || p.Y < 0 || p.Y >= m {
		panic(fmt.Sprintf("curve: point %v outside %dx%d mesh", p, n, m))
	}
}

// sharedCap bounds the visit-order memo below; a pipeline touches only a
// handful of mesh sizes, so a tiny MRU list is enough to make the 1M-cell
// full-scale order a one-time cost.
const sharedCap = 8

var (
	sharedMu sync.Mutex
	shared   []sharedEntry
)

type sharedEntry struct {
	name string
	n, m int
	pts  []geom.Point
}

// Shared returns c.Points(n, m) from a small process-wide memo, computing
// and caching it on first use. The full-scale pipeline asks for the same
// 1024×1024 order from placement, benchmarks and experiment runs; Shared
// makes the ~16 MB order a one-time cost. Callers must treat the result as
// read-only — it is aliased across callers.
func Shared(c Curve, n, m int) []geom.Point {
	checkMesh(n, m)
	name := c.Name()
	sharedMu.Lock()
	for i, e := range shared {
		if e.name == name && e.n == n && e.m == m {
			if i != 0 {
				copy(shared[1:i+1], shared[:i])
				shared[0] = e
			}
			pts := e.pts
			sharedMu.Unlock()
			return pts
		}
	}
	sharedMu.Unlock()
	pts := c.Points(n, m)
	sharedMu.Lock()
	defer sharedMu.Unlock()
	for _, e := range shared {
		if e.name == name && e.n == n && e.m == m {
			// A concurrent caller computed it first; keep theirs.
			return e.pts
		}
	}
	if len(shared) >= sharedCap {
		shared = shared[:sharedCap-1]
	}
	shared = append([]sharedEntry{{name: name, n: n, m: m, pts: pts}}, shared...)
	return pts
}
