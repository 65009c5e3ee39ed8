package metrics

import (
	"snnmap/internal/pcn"
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

// sweep is one worker's scratch: a target's four quadrant boxes back to
// back, grown geometrically so that a run of ever larger boxes reallocates
// O(log) times and holds at most twice the largest four-box total; the
// shared in-run's fields; the stencils memoised over one congestionGrid
// call; the grid its chunks are summed into; and the rows they touched.
type sweep struct {
	box []float64
	one [1]int32 // the source of a one-source group (sampled mode)
	run runFields
	// memo maps a stretch's key, built in key, to its stencil; its stencils
	// hold held floats. Stencils are built in st, grown geometrically, and
	// copied into the memo.
	key  []byte
	memo map[string][]float64
	held int
	st   []float64
	grid []float64 // zero but for the rows of the chunk being summed
	// lo..hi are the mesh rows the chunk's boxes covered so far (lo > hi:
	// none), so that only they are committed.
	lo, hi int
}

// touch widens the chunk's row span to rows lo..hi.
func (s *sweep) touch(lo, hi int) {
	s.lo, s.hi = min(s.lo, lo), max(s.hi, hi)
}

// propagate adds Σ_k ws[k]·Expe(·, pos[from[k]], t) to grid (row-major, cols
// wide) and returns the box cells it swept, or with grid nil only counts
// them; ws is one weight per source or one broadcast (pcn.WeightMask).
//
// Algorithm 4's Expe function models the routing of one spike from source s
// to target t as a randomized minimal (dimension-balanced) walk: at every
// router that is on neither t's row nor column, the spike proceeds toward t
// in either dimension with probability ½; once a dimension is exhausted the
// spike goes straight. Expe(x, y, s, t) is the expected number of traversals
// of router (x,y) per spike. In normalized coordinates (u steps toward t in
// x, v in y, the bounding box spanning dx×dy steps) it is the DP
//
//	E[0][0] = 1
//	E[u][v] = E[u-1][v]·(v==dy ? 1 : ½) + E[u][v-1]·(u==dx ? 1 : ½)
//
// with the closed form C(u+v, u) / 2^(u+v) at interior points
// (expe_oracle_test.go keeps both as oracles). The split at a router depends
// only on the router and t — ½/½ toward t, straight on along t's row and
// column — so each quadrant's sources are injected into the union of their
// boxes and carried to t by one DP sweep, which by linearity is the sum of
// their Expe grids (DESIGN.md §10). Quadrants go in index order; t's row and
// column lie in two quadrant boxes and receive both sums.
func (s *sweep) propagate(grid []float64, cols int, pos []cellXY, t cellXY, from []int32, ws []float64) int64 {
	// ext[q]: the largest row and column distance of quadrant q's sources
	// from t; an empty quadrant keeps −1 and takes no cells.
	ext := [4][2]int{{-1, -1}, {-1, -1}, {-1, -1}, {-1, -1}}
	for _, f := range from {
		q, du, dv := quadrant(pos[f], t)
		ext[q] = [2]int{max(ext[q][0], du), max(ext[q][1], dv)}
	}
	var base [5]int // quadrant q's box is box[base[q]:base[q+1]]
	for q, e := range ext {
		base[q+1] = base[q] + (e[0]+1)*(e[1]+1)
	}
	n := base[4]
	if grid == nil {
		return int64(n)
	}
	s.touch(int(t.x)-max(0, ext[0][0], ext[1][0]), int(t.x)+max(0, ext[2][0], ext[3][0]))
	if n > cap(s.box) {
		s.box = make([]float64, max(n, 2*cap(s.box)))
	}
	box := s.box[:n]
	clear(box)
	mask := pcn.WeightMask(from, ws)
	for k, f := range from {
		q, du, dv := quadrant(pos[f], t)
		dx, dy := ext[q][0], ext[q][1]
		box[base[q]+(dx-du)*(dy+1)+dy-dv] += ws[k&mask]
	}
	for q, e := range ext {
		if e[0] >= 0 {
			sweepBox(grid, box[base[q]:base[q+1]], cols, t, e[0], e[1], q)
		}
	}
	return int64(n)
}

// quadrant returns which quadrant around t a source at p is in — bit 1:
// below t, bit 0: right of t, so t's own row counts as above and its column
// as left — and the source's row and column distance from t. It does not
// branch: a target's sources lie on either side of it in no set order.
func quadrant(p, t cellXY) (q, du, dv int) {
	du, dv = int(t.x-p.x), int(t.y-p.y)
	below, right := du>>63, dv>>63 // −1 when below / right of t, else 0
	return below&2 | right&1, du ^ below - below, dv ^ right - right
}

// sweepBox runs the DP over quadrant q's box m, (dx+1)×(dy+1) row-major from
// the far corner (0, 0) to t at (dx, dy), with the weights injected,
//
//	m[u][v] = inj + m[u-1][v]·(v==dy ? 1 : ½) + m[u][v-1]·(u==dx ? 1 : ½)
//
// left to right, and adds each cell to grid as soon as it is final.
func sweepBox(grid, m []float64, cols int, t cellXY, dx, dy, q int) {
	rowStep, colStep := cols, 1 // rows and columns run toward t
	if q&2 != 0 {
		rowStep = -cols
	}
	if q&1 != 0 {
		colStep = -1
	}
	at, w := int(t.x)*cols+int(t.y)-dx*rowStep-dy*colStep, dy+1 // at: box cell (0, 0)
	for u := 0; u <= dx; u++ {
		row := m[u*w : u*w+w]
		up, half, straight := row, 0.0, 0.0 // row 0 has none above: itself × 0
		if u > 0 {
			up, half, straight = m[u*w-w:u*w], 0.5, 1
		}
		fl, left := 0.5, 0.0
		if u == dx {
			fl = 1 // t's row: straight on
		}
		for v := range dy {
			e := row[v] + up[v]*half + left*fl
			row[v], left = e, e
			grid[at+v*colStep] += e
		}
		row[dy] = row[dy] + up[dy]*straight + left*fl // t's column: straight on
		grid[at+dy*colStep] += row[dy]
		at += rowStep
	}
}
