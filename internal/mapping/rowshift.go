package mapping

import (
	"fmt"
	"math"
	"time"

	"snnmap/internal/geom"
	"snnmap/internal/hw"
	"snnmap/internal/pcn"
	"snnmap/internal/place"
)

// RowRemapStats reports one RemapRows repair run.
type RowRemapStats struct {
	// RowsShifted is the number of failed rows retired wholesale onto a
	// spare row.
	RowsShifted int
	// RowMoved is the number of clusters migrated by wholesale row shifts;
	// FallbackMoved is the number migrated per-cluster instead — because
	// the row had no viable wholesale target, or because the measured
	// per-cluster repair was cheaper. Moved is their sum.
	RowMoved, FallbackMoved, Moved int
	// MovedFrac is Moved over the PCN's cluster count.
	MovedFrac float64
	// MaxMoveDist is the largest Manhattan distance any cluster traveled
	// (for a row shift, the row distance — columns are preserved).
	MaxMoveDist int
	// EnergyBefore and EnergyAfter are the interconnect energy M_ec (Eq. 9)
	// of the placement before and after the repair.
	EnergyBefore, EnergyAfter float64
	// Elapsed is the repair wall-clock time.
	Elapsed time.Duration
}

// DeltaEnergy returns EnergyAfter − EnergyBefore (positive = degradation).
func (s RowRemapStats) DeltaEnergy() float64 { return s.EnergyAfter - s.EnergyBefore }

// RemapRows repairs a placement after hardware failure using wholesale
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
// exists at all — spares exhausted, or every candidate row has its own dead
// cells under the victims' columns — the remaining victims likewise fall
// back to per-cluster migration (nearest free healthy core). cons is
// unused; the parameter stays for source compatibility. pl must be a valid
// placement of p's clusters (else an error wrapping ErrBadConfig). It is
// mutated in place; on error it is left partially repaired, with every
// completed migration still valid.
func RemapRows(p *pcn.PCN, pl *place.Placement, d *hw.DefectMap, cons hw.Constraints, cost hw.CostModel) (RowRemapStats, error) {
	start := time.Now()
	var st RowRemapStats
	if err := validPlacement(p, pl, d); err != nil {
		return st, fmt.Errorf("mapping: remap rows: %w", err)
	}
	st.EnergyBefore = interconnectEnergy(p, pl, cost)
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
	free := newFreeCores(pl, d)
	// energy is the interconnect energy of the placement as it stands, while
	// energyExact: each failed row's kept repair leaves exactly the
	// placement one of its trial walks measured, and only a phase-2 move
	// invalidates it.
	energy, energyExact := st.EnergyBefore, true

	// Phase 1: wholesale shifts. For each failed row (ascending), pick the
	// fully-free row whose cells under every occupied column of the failed
	// row are alive, minimizing the row distance (ties to the larger row
	// index, so reserved bottom spares win over coincidentally-empty
	// interior rows). Rows vacated by
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
			if err := free.move(pl, moves[i].c, moves[i].from); err != nil {
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
			if err := free.move(pl, int(c), int32(best*cols+y)); err != nil {
				return st, err
			}
		}
		shiftEnergy := interconnectEnergy(p, pl, cost)
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
			to, ok := free.nearest(mesh.Coord(int(idx)))
			if !ok {
				perOK = false
				break
			}
			perMoves = append(perMoves, undo{c, idx})
			if err := free.move(pl, c, int32(to)); err != nil {
				return st, err
			}
		}
		keepPer, perEnergy := false, 0.0
		if perOK {
			perEnergy = interconnectEnergy(p, pl, cost)
			keepPer = perEnergy < shiftEnergy-relEps
		}
		if keepPer {
			energy = perEnergy
			// The per-cluster repair is already in place; account it.
			for _, m := range perMoves {
				st.FallbackMoved++
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
			energy = shiftEnergy
			dist := geom.Abs(best - rf)
			for y := 0; y < cols; y++ {
				c := pl.ClusterAt[rf*cols+y]
				if c == place.None {
					continue
				}
				if err := free.move(pl, int(c), int32(best*cols+y)); err != nil {
					return st, err
				}
				st.RowMoved++
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
		to, ok := free.nearest(from)
		if !ok {
			st.Elapsed = time.Since(start)
			return st, fmt.Errorf("mapping: remap rows: no healthy free core for cluster %d: %w", c, ErrUnplaceable)
		}
		if err := free.move(pl, c, int32(to)); err != nil {
			return st, err
		}
		energyExact = false
		st.FallbackMoved++
		if dist := geom.Manhattan(from, mesh.Coord(to)); dist > st.MaxMoveDist {
			st.MaxMoveDist = dist
		}
	}

	st.Moved = st.RowMoved + st.FallbackMoved
	st.MovedFrac = float64(st.Moved) / float64(p.NumClusters)
	st.EnergyAfter = energy
	if !energyExact {
		st.EnergyAfter = interconnectEnergy(p, pl, cost)
	}
	st.Elapsed = time.Since(start)
	return st, nil
}
