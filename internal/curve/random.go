package curve

import (
	"fmt"
	"math/rand"

	"snnmap/internal/geom"
)

// Random is a uniformly random visit order: the cells in the order of
// rand.New(rand.NewSource(Seed)).Perm(n·m) over row-major cell indices. It is
// no locality curve but the paper's random initial placement (Figure 8 a,
// and the start of FD(u) in e, g and i): on a PCN in topological order,
// cluster j lands on cell Perm[j], exactly where place.Random puts it with a
// generator of the same seed, and the walk skips dead cores and spare rows
// like any other curve's.
type Random struct{ Seed int64 }

// Name implements Curve. It carries the seed, so two seeds never share a
// cache entry.
func (r Random) Name() string { return fmt.Sprintf("random/%d", r.Seed) }

// Points implements Curve.
func (r Random) Points(n, m int) []geom.Point {
	checkMesh(n, m)
	perm := rand.New(rand.NewSource(r.Seed)).Perm(n * m)
	pts := make([]geom.Point, len(perm))
	for i, idx := range perm {
		pts[i] = geom.Point{X: idx / m, Y: idx % m}
	}
	return pts
}
