package mapping

// The repair code as it stood before the free-core index: nearestFree's ring
// scan, the per-edge SpikeEnergy walk, Remap and RemapRows, kept (renamed,
// calling the shared validPlacement with the defect map, deciding victims
// and targets by dead cores alone, and counting Moved as each migration is
// kept, with Remap's moves as FallbackMoved, as production does) as the
// oracles the index-driven repair is held to.

import (
	"fmt"
	"math"
	"time"

	"snnmap/internal/geom"
	"snnmap/internal/hw"
	"snnmap/internal/pcn"
	"snnmap/internal/place"
)

// remapRing repairs an existing placement after the defect map changed (e.g. a
// core failed in the field): every cluster sitting on a dead core migrates
// to the nearest free healthy core. Only affected clusters move (minimal
// disruption), so a single core failure migrates a single cluster.
// pl must be a valid placement of p's clusters (else an error wrapping
// ErrBadConfig). It is mutated in place; on error it is left partially
// repaired, with every completed migration still valid.
func remapRing(p *pcn.PCN, pl *place.Placement, d *hw.DefectMap, cons hw.Constraints, cost hw.CostModel) (RemapStats, error) {
	start := time.Now()
	var st RemapStats
	if err := validPlacement(p, pl, d); err != nil {
		return st, fmt.Errorf("mapping: remap: %w", err)
	}
	if d == nil {
		st.EnergyBefore = interconnectEnergyRing(p, pl, cost)
		st.EnergyAfter = st.EnergyBefore
		st.Elapsed = time.Since(start)
		return st, nil
	}
	var victims []int32
	for c, idx := range pl.PosOf {
		if d.IsDead(int(idx)) {
			victims = append(victims, int32(c))
		}
	}
	st.EnergyBefore = interconnectEnergyRing(p, pl, cost)
	st.EnergyAfter = st.EnergyBefore
	if len(victims) == 0 {
		st.Elapsed = time.Since(start)
		return st, nil
	}
	mesh := pl.Mesh
	for _, c := range victims {
		from := pl.Of(int(c))
		to, ok := nearestFreeRing(pl, d, from)
		if !ok {
			st.Elapsed = time.Since(start)
			return st, fmt.Errorf("mapping: remap: no healthy free core for cluster %d: %w", c, ErrUnplaceable)
		}
		if err := pl.Move(int(c), int32(to)); err != nil {
			return st, err
		}
		st.FallbackMoved++
		st.Moved++
		if dist := geom.Manhattan(from, mesh.Coord(to)); dist > st.MaxMoveDist {
			st.MaxMoveDist = dist
		}
	}
	st.MovedFrac = float64(st.Moved) / float64(p.NumClusters)
	st.EnergyAfter = interconnectEnergyRing(p, pl, cost)
	st.Elapsed = time.Since(start)
	return st, nil
}

// nearestFreeRing finds the closest free, alive core (by Manhattan distance from
// `from`, ties broken in deterministic ring order).
func nearestFreeRing(pl *place.Placement, d *hw.DefectMap, from geom.Point) (int, bool) {
	mesh := pl.Mesh
	for r := 1; r <= mesh.Rows+mesh.Cols; r++ {
		for dx := -r; dx <= r; dx++ {
			dy := r - geom.Abs(dx)
			cands := [2]geom.Point{{X: from.X + dx, Y: from.Y + dy}, {X: from.X + dx, Y: from.Y - dy}}
			n := 2
			if dy == 0 {
				n = 1 // the two candidates coincide on the axis
			}
			for _, pt := range cands[:n] {
				if !mesh.Contains(pt) {
					continue
				}
				if idx := mesh.Index(pt); pl.ClusterAt[idx] == place.None && !d.IsDead(idx) {
					return idx, true
				}
			}
		}
	}
	return 0, false
}

// interconnectEnergyRing is M_ec (Eq. 9) computed directly: the per-spike energy
// of every directed connection at its current placement distance.
func interconnectEnergyRing(p *pcn.PCN, pl *place.Placement, cost hw.CostModel) float64 {
	pos := clusterCoords(pl)
	var total float64
	for c := 0; c < p.NumClusters; c++ {
		src := pos[c]
		tos, ws := p.OutEdges(c)
		for k, to := range tos {
			dst := pos[to]
			total += ws[k] * cost.SpikeEnergy(geom.Abs(int(src.x-dst.x))+geom.Abs(int(src.y-dst.y)))
		}
	}
	return total
}

// remapRowsRing repairs a placement after hardware failure using wholesale
// row-shift redundancy, the way DRAM retires a failed word line onto a spare
// row: every row holding at least one victim cluster (one on a dead core) is
// migrated in one operation onto a fully-free row — each cluster keeps its
// column, so intra-row adjacency is preserved exactly and the energy cost of
// the repair is bounded by the row distance. Spare rows reserved at placement time (Constraints.SpareRows
// kept them empty) are the natural targets, but any fully-free row qualifies,
// including rows vacated by earlier shifts of the same run.
//
// The shift is not applied blindly: for each failed row both repairs — the
// wholesale shift and per-cluster Remap migration of the row's victims — are
// tentatively applied and measured, and the cheaper one (by interconnect
// energy, ties preferring the structure-preserving shift) is kept. So
// RemapRows is never worse than per-cluster Remap on the same failed row:
// when the only free row sits far away and healthy free cells are nearby,
// it degrades into exactly Remap's migration. When no suitable free row
// exists at all — spares exhausted, or every candidate row has its own
// dead cells under the victims' columns — the remaining victims
// likewise fall back to per-cluster migration (nearest free healthy core).
// pl must be a valid placement of p's clusters (else an error wrapping
// ErrBadConfig). It is mutated in place; on error it is left partially
// repaired, with every completed migration still valid.
func remapRowsRing(p *pcn.PCN, pl *place.Placement, d *hw.DefectMap, cons hw.Constraints, cost hw.CostModel) (RemapStats, error) {
	start := time.Now()
	var st RemapStats
	if err := validPlacement(p, pl, d); err != nil {
		return st, fmt.Errorf("mapping: remap rows: %w", err)
	}
	st.EnergyBefore = interconnectEnergyRing(p, pl, cost)
	st.EnergyAfter = st.EnergyBefore
	if d == nil {
		st.Elapsed = time.Since(start)
		return st, nil
	}
	mesh := pl.Mesh
	cols := mesh.Cols

	// Collect victim clusters and the rows that contain them.
	victimInRow := make([]bool, mesh.Rows)
	anyVictim := false
	for _, idx := range pl.PosOf {
		if d.IsDead(int(idx)) {
			victimInRow[idx/int32(cols)] = true
			anyVictim = true
		}
	}
	if !anyVictim {
		st.Elapsed = time.Since(start)
		return st, nil
	}

	// Phase 1: wholesale shifts. For each failed row (ascending), pick the
	// fully-free row whose cells under every occupied column of the failed
	// row are alive, minimizing the row distance (ties to the larger row index, so reserved bottom
	// spares win over coincidentally-empty interior rows). Rows vacated by
	// earlier shifts re-enter the candidate pool automatically: the
	// emptiness scan and per-column health checks see the current state.
	rowFree := func(r int) bool {
		for y := 0; y < cols; y++ {
			if pl.ClusterAt[r*cols+y] != place.None {
				return false
			}
		}
		return true
	}
	// A move that can be undone; revert walks the list backwards so no
	// intermediate step ever collides with an occupied cell.
	type undo struct {
		c    int
		from int32
	}
	revert := func(moves []undo) error {
		for i := len(moves) - 1; i >= 0; i-- {
			if err := pl.Move(moves[i].c, moves[i].from); err != nil {
				return err
			}
		}
		return nil
	}
	// relEps absorbs float summation noise when the two repairs reach
	// physically equivalent layouts; within it the shift wins the tie.
	relEps := 1e-12 * math.Abs(st.EnergyBefore)
	for rf := 0; rf < mesh.Rows; rf++ {
		if !victimInRow[rf] {
			continue
		}
		accepts := func(rs int) bool {
			if !rowFree(rs) {
				return false
			}
			for y := 0; y < cols; y++ {
				if pl.ClusterAt[rf*cols+y] != place.None && d.IsDead(rs*cols+y) {
					return false
				}
			}
			return true
		}
		best := -1
		for rs := 0; rs < mesh.Rows; rs++ {
			if rs == rf || !accepts(rs) {
				continue
			}
			if best < 0 || geom.Abs(rs-rf) < geom.Abs(best-rf) ||
				(geom.Abs(rs-rf) == geom.Abs(best-rf) && rs > best) {
				best = rs
			}
		}
		if best < 0 {
			continue // no wholesale target; phase 2 handles this row's victims
		}

		// Tentatively apply the wholesale shift and measure it.
		var shiftMoves []undo
		for y := 0; y < cols; y++ {
			c := pl.ClusterAt[rf*cols+y]
			if c == place.None {
				continue
			}
			shiftMoves = append(shiftMoves, undo{int(c), int32(rf*cols + y)})
			if err := pl.Move(int(c), int32(best*cols+y)); err != nil {
				return st, err
			}
		}
		shiftEnergy := interconnectEnergyRing(p, pl, cost)
		if err := revert(shiftMoves); err != nil {
			return st, err
		}

		// Tentatively apply the per-cluster alternative: migrate only this
		// row's victims, in cluster order (Remap's policy and order, so a
		// single-row failure reproduces Remap exactly when it wins).
		var perMoves []undo
		perOK := true
		for c, idx := range pl.PosOf {
			if int(idx)/cols != rf || !d.IsDead(int(idx)) {
				continue
			}
			to, ok := nearestFreeRing(pl, d, mesh.Coord(int(idx)))
			if !ok {
				perOK = false
				break
			}
			perMoves = append(perMoves, undo{c, idx})
			if err := pl.Move(c, int32(to)); err != nil {
				return st, err
			}
		}
		keepPer := false
		if perOK {
			keepPer = interconnectEnergyRing(p, pl, cost) < shiftEnergy-relEps
		}
		if keepPer {
			// The per-cluster repair is already in place; account it.
			for _, m := range perMoves {
				st.FallbackMoved++
				st.Moved++
				from := mesh.Coord(int(m.from))
				to := pl.Of(m.c)
				if dist := geom.Manhattan(from, to); dist > st.MaxMoveDist {
					st.MaxMoveDist = dist
				}
			}
		} else {
			if err := revert(perMoves); err != nil {
				return st, err
			}
			dist := geom.Abs(best - rf)
			for y := 0; y < cols; y++ {
				c := pl.ClusterAt[rf*cols+y]
				if c == place.None {
					continue
				}
				if err := pl.Move(int(c), int32(best*cols+y)); err != nil {
					return st, err
				}
				st.RowMoved++
				st.Moved++
			}
			st.RowsShifted++
			if dist > st.MaxMoveDist {
				st.MaxMoveDist = dist
			}
		}
		victimInRow[rf] = false
	}

	// Phase 2: per-cluster fallback for victims whose row found no
	// wholesale target (Remap's migration policy: nearest free healthy
	// core).
	for c, idx := range pl.PosOf {
		if !d.IsDead(int(idx)) {
			continue
		}
		from := mesh.Coord(int(idx))
		to, ok := nearestFreeRing(pl, d, from)
		if !ok {
			st.Elapsed = time.Since(start)
			return st, fmt.Errorf("mapping: remap rows: no healthy free core for cluster %d: %w", c, ErrUnplaceable)
		}
		if err := pl.Move(c, int32(to)); err != nil {
			return st, err
		}
		st.FallbackMoved++
		st.Moved++
		if dist := geom.Manhattan(from, mesh.Coord(to)); dist > st.MaxMoveDist {
			st.MaxMoveDist = dist
		}
	}

	st.MovedFrac = float64(st.Moved) / float64(p.NumClusters)
	st.EnergyAfter = interconnectEnergyRing(p, pl, cost)
	st.Elapsed = time.Since(start)
	return st, nil
}
