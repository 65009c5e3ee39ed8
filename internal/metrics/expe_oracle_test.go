package metrics

// The Expe oracles. Algorithm 4's per-edge DP (Expe, expeGrid) and its
// closed form (ExpeClosedForm), which production stopped calling when
// congestion became one propagated sweep per target; and the stamping
// oracle: the universal Expe tables that stamped one product per (edge × box
// cell) before propagation, kept verbatim. TestExpeUniversalEqualsDP pins the
// tables to the per-shape DP bit for bit, and stampedCongestionGrid adds them
// up edge by edge, as fast as the production path was, for inputs too large
// for naiveCongestionGrid.

import (
	"math"
	"sync"

	"snnmap/internal/geom"
	"snnmap/internal/hw"
	"snnmap/internal/par"
	"snnmap/internal/pcn"
	"snnmap/internal/place"
)

// Expe returns the expected traversals of router at by one spike sent from
// src to dst (Algorithm 4; the DP is on propagate). Routers outside the
// bounding box return 0.
func Expe(at, src, dst geom.Point, _ hw.Mesh) float64 {
	if at.X < min(src.X, dst.X) || at.X > max(src.X, dst.X) || at.Y < min(src.Y, dst.Y) || at.Y > max(src.Y, dst.Y) {
		return 0
	}
	dx := geom.Abs(dst.X - src.X)
	dy := geom.Abs(dst.Y - src.Y)
	u := geom.Abs(at.X - src.X)
	v := geom.Abs(at.Y - src.Y)
	return expeGrid(dx, dy)[u*(dy+1)+v]
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

// expeDenseSide bounds the shapes kept as contiguous (dx+1)×(dy+1) grids:
// boxes with dx, dy < expeDenseSide — every box of an HSC+FD placement of the
// layered workloads — are stamped from one stream, larger ones row by row
// from T and B. Measured: 8 costs dnn268m's grid +15 %, 16 and 32 are level
// on dnn268m, dnn268m_faulty and graph512k, and 16 holds Σ(dx+1)(dy+1) =
// 136² floats = 148 KB where 64 held 34.6 MB.
const expeDenseSide = 16

// expeTables holds Algorithm 4's DP for every bounding box of a mesh at
// once. A DP cell depends on its box only through which of its two factors
// are 1, so
//
//	T[u][v] = ½T[u-1][v] + ½T[u][v-1]    interior cell, u < dx and v < dy
//	B[d][v] = ½T[d-1][v] + B[d][v-1]     last row u = dx = d, v < dy
//
// are the DP's own expressions on the DP's own operands, the same floats in
// every box. Float addition commutes, so T is bitwise symmetric and the last
// column (v = dy, u < dx) is B[dy][u]; the corner is B[dy][dx-1] + B[dx][dy-1]
// (DESIGN.md §10). One set serves a whole congestion grid; workers share it.
type expeTables struct {
	k     int       // largest box extent covered; row length of t and b
	t, b  []float64 // T and B, (k+1)×k row-major (T's last row is unused)
	dense [expeDenseSide * expeDenseSide][]float64
	// T and B cover the dense table's extent until the first box outside it
	// grows them to the mesh's (meshK), so a placement without such a box
	// never holds 16·K² bytes of them.
	meshK int
	grow  sync.Once
}

func newExpeTables(mesh hw.Mesh) *expeTables {
	x := &expeTables{meshK: max(mesh.Rows, mesh.Cols) - 1}
	x.build(min(x.meshK, expeDenseSide-1))
	rows, cols := min(mesh.Rows, expeDenseSide), min(mesh.Cols, expeDenseSide)
	backing := make([]float64, rows*(rows+1)/2*cols*(cols+1)/2)
	for dx := 0; dx < rows; dx++ {
		for dy := 0; dy < cols; dy++ {
			n := (dx + 1) * (dy + 1)
			g := backing[:n:n]
			backing = backing[n:]
			x.stamp(g, 0, dy+1, dx, dy, false, 1) // 0 + 1·e = e
			x.dense[dx*expeDenseSide+dy] = g
		}
	}
	return x
}

// build fills T and B for boxes of extent up to k by the recurrences above.
func (x *expeTables) build(k int) {
	x.k, x.t, x.b = k, make([]float64, (k+1)*k), make([]float64, (k+1)*k)
	up := make([]float64, k) // T[-1][·] = 0: row 0 has no upper neighbour
	for d := 0; d <= k; d++ {
		left, last := 0.0, 0.0 // T[d][-1] and B[d][-1]: no left neighbour
		if d == 0 {
			left, last = 2, 1 // T[0][0] = ½·2 = 1; dx = 0 goes straight, B[0][·] = 1
		}
		for v, e := range up {
			left = 0.5*e + 0.5*left
			last += 0.5 * e
			x.t[d*k+v], x.b[d*k+v] = left, last
		}
		up = x.t[d*k : (d+1)*k]
	}
}

// stamp adds w × the dx×dy box's DP grid to the box rows starting at
// grid[at], rowStep apart, reading every row straight from T and B; mirror
// reverses each row (the target is left of the source).
func (x *expeTables) stamp(grid []float64, at, rowStep, dx, dy int, mirror bool, w float64) {
	k, corner := x.k, 1.0
	if dx > 0 && dy > 0 {
		corner = x.b[dy*k+dx-1] + x.b[dx*k+dy-1]
	}
	body, tail := 0, dy // offsets in a box row of its first dy cells and its last
	if mirror {
		body, tail = 1, 0
	}
	for u, end := range x.b[dy*k : dy*k+dx] { // the last column, B[dy][u]
		addRow(grid[at+body:at+body+dy], x.t[u*k:u*k+dy], w, mirror)
		grid[at+tail] += w * end
		at += rowStep
	}
	addRow(grid[at+body:at+body+dy], x.b[dx*k:dx*k+dy], w, mirror)
	grid[at+tail] += w * corner
}

// addRow adds w × in to the equally long out, reversed when mirror is set;
// the left-to-right loop runs without bounds checks.
func addRow(out, in []float64, w float64, mirror bool) {
	out = out[:len(in)]
	if !mirror {
		for v, e := range in {
			out[v] += w * e
		}
		return
	}
	for v, e := range in {
		out[len(out)-1-v] += w * e
	}
}

// accumulate adds w × Expe(·, src, dst) to every router in the edge's
// bounding box on a mesh with cols columns, row by row. Every cell receives
// exactly one product per edge, so the grid depends only on the order edges
// are accumulated in.
func (x *expeTables) accumulate(grid []float64, cols int, src, dst cellXY, w float64) {
	dx, rowStep := int(dst.x-src.x), cols
	if dx < 0 {
		dx, rowStep = -dx, -cols
	}
	dy, left := int(dst.y-src.y), int(src.y)
	if dy < 0 {
		dy, left = -dy, int(dst.y)
	}
	at, mirror := int(src.x)*cols+left, dst.y < src.y
	if dx >= expeDenseSide || dy >= expeDenseSide {
		x.grow.Do(func() { x.build(x.meshK) })
		x.stamp(grid, at, rowStep, dx, dy, mirror, w)
		return
	}
	cells := x.dense[dx*expeDenseSide+dy]
	for gw := dy + 1; len(cells) >= gw; cells, at = cells[gw:], at+rowStep {
		addRow(grid[at:at+gw], cells[:gw], w, mirror)
	}
}

// stampedCongestionGrid stamps w·Expe for every stride-th edge in CSR order,
// per evaluation chunk and merged in chunk order: the congestion grid as it
// was computed before propagation.
func stampedCongestionGrid(p *pcn.PCN, pl *place.Placement, stride int) []float64 {
	mesh, pos := pl.Mesh, clusterCoords(pl)
	grid, scratch := make([]float64, mesh.Cores()), make([]float64, mesh.Cores())
	tables := newExpeTables(mesh)
	n := p.NumClusters
	k := par.Chunks(n)
	for ci := 0; ci < k; ci++ {
		clear(scratch)
		for c := ci * n / k; c < (ci+1)*n/k; c++ {
			tos, ws := p.OutEdges(c)
			for kk, to := range tos {
				if (p.OutOff[c]+int64(kk))%int64(stride) == 0 {
					tables.accumulate(scratch, mesh.Cols, pos[c], pos[to], ws[kk])
				}
			}
		}
		for i, v := range scratch {
			grid[i] += v
		}
	}
	return grid
}
