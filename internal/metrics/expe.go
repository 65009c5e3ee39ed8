package metrics

import (
	"math"

	"snnmap/internal/geom"
	"snnmap/internal/hw"
	"snnmap/internal/place"
)

// cellXY is a mesh coordinate (row x, column y) in the evaluation tables.
type cellXY struct{ x, y int32 }

// clusterCoords tabulates pl.Of(c) for every cluster, so the O(E) walks pay
// a load instead of a division per edge endpoint.
func clusterCoords(pl *place.Placement) []cellXY {
	pos := make([]cellXY, len(pl.PosOf))
	for c, idx := range pl.PosOf {
		pt := pl.Mesh.Coord(int(idx))
		pos[c] = cellXY{int32(pt.X), int32(pt.Y)}
	}
	return pos
}

// Algorithm 4's Expe function models the routing of one spike from source to
// target as a randomized minimal (dimension-balanced) walk: at every router
// that is on neither the target's row nor column, the spike proceeds toward
// the target in either dimension with probability ½; once a dimension is
// exhausted the spike goes straight. Expe(x, y, s, t) is the expected number
// of traversals of router (x,y) per spike.
//
// In normalized coordinates (u steps toward the target in x, v in y, with
// the bounding box spanning dx×dy steps), the DP is
//
//	E[0][0] = 1
//	E[u][v] = E[u-1][v]·(v==dy ? 1 : ½) + E[u][v-1]·(u==dx ? 1 : ½)
//
// and for interior points it has the closed form C(u+v, u) / 2^(u+v),
// which ExpeClosedForm exposes for property testing.

// Expe returns the expected traversals of router at by one spike sent from
// src to dst (Algorithm 4). Routers outside the bounding box return 0.
func Expe(at, src, dst geom.Point, mesh hw.Mesh) float64 {
	if !geom.Bounding(src, dst).Contains(at) {
		return 0
	}
	dx := geom.Abs(dst.X - src.X)
	dy := geom.Abs(dst.Y - src.Y)
	u := geom.Abs(at.X - src.X)
	v := geom.Abs(at.Y - src.Y)
	// Verify at is on the src→dst side in both dimensions (Bounding already
	// guarantees it, but keep the check cheap and explicit).
	_ = mesh
	grid := expeGrid(dx, dy)
	return grid[u*(dy+1)+v]
}

// ExpeClosedForm returns the closed-form expectation for the normalized
// offset (u, v) in a dx×dy box. It matches the DP exactly and exists so the
// DP can be property-tested against an independent formulation.
func ExpeClosedForm(u, v, dx, dy int) float64 {
	switch {
	case u < 0 || v < 0 || u > dx || v > dy:
		return 0
	case u < dx && v < dy:
		return binomial(u+v, u) / math.Exp2(float64(u+v))
	case u == dx && v == dy:
		return 1
	case u == dx:
		// On the target column: accumulate all mass that entered it at or
		// before row v. E = Σ_{j<=v'} interior inflow; recurse via DP row.
		var sum float64
		if dx == 0 {
			return 1
		}
		for j := 0; j <= v; j++ {
			// Inflow from (dx-1, j) times ½ (j<dy) plus nothing else;
			// mass then flows straight down the column.
			sum += binomial(dx-1+j, j) / math.Exp2(float64(dx-1+j)) * 0.5
		}
		return sum
	default: // v == dy
		var sum float64
		if dy == 0 {
			return 1
		}
		for i := 0; i <= u; i++ {
			sum += binomial(dy-1+i, i) / math.Exp2(float64(dy-1+i)) * 0.5
		}
		return sum
	}
}

func binomial(n, k int) float64 {
	if k < 0 || k > n {
		return 0
	}
	if k > n-k {
		k = n - k
	}
	res := 1.0
	for i := 1; i <= k; i++ {
		res = res * float64(n-k+i) / float64(i)
	}
	return res
}

// expeGrid computes the full DP table for a dx×dy bounding box, laid out as
// (dx+1)×(dy+1) row-major.
func expeGrid(dx, dy int) []float64 {
	grid := make([]float64, (dx+1)*(dy+1))
	fillExpeGrid(grid, dx, dy)
	return grid
}

func fillExpeGrid(grid []float64, dx, dy int) {
	w := dy + 1
	grid[0] = 1
	for u := 0; u <= dx; u++ {
		for v := 0; v <= dy; v++ {
			if u == 0 && v == 0 {
				continue
			}
			var e float64
			if u > 0 {
				f := 0.5
				if v == dy {
					f = 1
				}
				e += grid[(u-1)*w+v] * f
			}
			if v > 0 {
				f := 0.5
				if u == dx {
					f = 1
				}
				e += grid[u*w+v-1] * f
			}
			grid[u*w+v] = e
		}
	}
}

// expeTableSide bounds the bounding-box shapes whose DP grid an
// expeAccumulator keeps: boxes with dx, dy < expeTableSide are filled once
// and reused, larger ones are recomputed into scratch per edge (64 covers
// every box of HSC+FD placements and of a 64×64 mesh). Worst case, with all
// 64² shapes in use, one accumulator retains Σ(dx+1)(dy+1) = 2080² floats =
// 34.6 MB of grids plus the 96 KiB slice table; at most one accumulator is
// live per worker.
const expeTableSide = 64

// expeAccumulator adds per-edge expectation grids into a mesh-sized
// congestion grid. Mesh edges heavily share small bounding boxes, so filled
// DP grids are kept in a dense table indexed by shape (dx, dy) and most
// edges skip the DP entirely; the table only ever holds the exact floats
// the DP produces.
type expeAccumulator struct {
	scratch []float64
	table   [expeTableSide * expeTableSide][]float64
}

// expeCells returns the filled (dx+1)×(dy+1) DP grid. The returned slice is
// read-only and only valid until the next call (it may alias the scratch
// buffer).
func (a *expeAccumulator) expeCells(dx, dy int) []float64 {
	need := (dx + 1) * (dy + 1)
	if dx < expeTableSide && dy < expeTableSide {
		g := a.table[dx*expeTableSide+dy]
		if g == nil {
			g = make([]float64, need)
			fillExpeGrid(g, dx, dy)
			a.table[dx*expeTableSide+dy] = g
		}
		return g
	}
	if cap(a.scratch) < need {
		a.scratch = make([]float64, need)
	}
	g := a.scratch[:need]
	fillExpeGrid(g, dx, dy) // assigns every cell, so stale scratch is fine
	return g
}

// accumulate adds w × Expe(·, src, dst) to every router in the edge's
// bounding box on a mesh with cols columns. Each box row is stamped through
// two equal-length sub-slices (no per-cell row arithmetic, and no bounds
// checks on the left-to-right rows). Every cell receives exactly one
// product per edge, so the grid depends only on the order edges are
// accumulated in.
func (a *expeAccumulator) accumulate(grid []float64, cols int, src, dst cellXY, w float64) {
	dx, rowStep := int(dst.x-src.x), cols
	if dx < 0 {
		dx, rowStep = -dx, -cols
	}
	dy, left := int(dst.y-src.y), int(src.y)
	if dy < 0 {
		dy, left = -dy, int(dst.y)
	}
	cells := a.expeCells(dx, dy)
	gw := dy + 1
	at := int(src.x)*cols + left
	for ; len(cells) >= gw; cells, at = cells[gw:], at+rowStep {
		in, out := cells[:gw], grid[at:at+gw]
		if dst.y >= src.y {
			for v, e := range in {
				out[v] += w * e
			}
		} else {
			for v, e := range in {
				out[len(out)-1-v] += w * e
			}
		}
	}
}
