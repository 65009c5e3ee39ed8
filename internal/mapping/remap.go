package mapping

import (
	"fmt"
	"time"

	"snnmap/internal/geom"
	"snnmap/internal/hw"
	"snnmap/internal/pcn"
	"snnmap/internal/place"
)

// RemapStats reports one incremental repair run.
type RemapStats struct {
	// Moved is the number of clusters migrated off failed/overfull cores.
	Moved int
	// MovedFrac is Moved over the PCN's cluster count.
	MovedFrac float64
	// MaxMoveDist is the largest Manhattan distance any cluster traveled.
	MaxMoveDist int
	// EnergyBefore and EnergyAfter are the interconnect energy M_ec (Eq. 9)
	// of the placement before and after the repair; their difference is the
	// remap's ΔM_ec.
	EnergyBefore, EnergyAfter float64
	// Elapsed is the repair wall-clock time.
	Elapsed time.Duration
}

// DeltaEnergy returns EnergyAfter − EnergyBefore (positive = degradation).
func (s RemapStats) DeltaEnergy() float64 { return s.EnergyAfter - s.EnergyBefore }

// Remap repairs an existing placement after the defect map changed (e.g. a
// core failed in the field): every cluster sitting on a dead core — or, with
// a constrained cons, exceeding a degraded core's scaled capacity — migrates
// to the nearest free healthy core that fits. Only affected clusters move
// (minimal disruption), so a single core failure migrates a single cluster.
// pl must be a valid placement of p's clusters (else an error wrapping
// ErrBadConfig). It is mutated in place; on error it is left partially
// repaired, with every completed migration still valid.
func Remap(p *pcn.PCN, pl *place.Placement, d *hw.DefectMap, cons hw.Constraints, cost hw.CostModel) (RemapStats, error) {
	start := time.Now()
	var st RemapStats
	if err := validPlacement(p, pl); err != nil {
		return st, fmt.Errorf("mapping: remap: %w", err)
	}
	if d == nil {
		st.EnergyBefore = interconnectEnergy(p, pl, cost)
		st.EnergyAfter = st.EnergyBefore
		st.Elapsed = time.Since(start)
		return st, nil
	}
	var victims []int32
	for c, idx := range pl.PosOf {
		if d.IsDead(int(idx)) || !clusterFits(p, c, cons, d.CapScale(int(idx))) {
			victims = append(victims, int32(c))
		}
	}
	st.EnergyBefore = interconnectEnergy(p, pl, cost)
	st.EnergyAfter = st.EnergyBefore
	if len(victims) == 0 {
		st.Elapsed = time.Since(start)
		return st, nil
	}
	mesh := pl.Mesh
	for _, c := range victims {
		from := pl.Of(int(c))
		to, ok := nearestFree(p, pl, d, cons, int(c), from)
		if !ok {
			st.Elapsed = time.Since(start)
			return st, fmt.Errorf("mapping: remap: no healthy free core fits cluster %d: %w", c, ErrUnplaceable)
		}
		if err := pl.Move(int(c), int32(to)); err != nil {
			return st, err
		}
		st.Moved++
		if dist := geom.Manhattan(from, mesh.Coord(to)); dist > st.MaxMoveDist {
			st.MaxMoveDist = dist
		}
	}
	st.MovedFrac = float64(st.Moved) / float64(p.NumClusters)
	st.EnergyAfter = interconnectEnergy(p, pl, cost)
	st.Elapsed = time.Since(start)
	return st, nil
}

// validPlacement checks what Remap, RemapRows and FinetuneContext index by:
// a placement of exactly p's clusters that is a bijection onto in-mesh cells.
// The error wraps ErrBadConfig.
func validPlacement(p *pcn.PCN, pl *place.Placement) error {
	if len(pl.PosOf) != p.NumClusters {
		return fmt.Errorf("%w: placement covers %d clusters, PCN has %d", ErrBadConfig, len(pl.PosOf), p.NumClusters)
	}
	if err := pl.Validate(); err != nil {
		return fmt.Errorf("%w: %v", ErrBadConfig, err)
	}
	return nil
}

// nearestFree finds the closest free, alive core (by Manhattan distance from
// `from`, ties broken in deterministic ring order) where cluster c fits.
func nearestFree(p *pcn.PCN, pl *place.Placement, d *hw.DefectMap, cons hw.Constraints, c int, from geom.Point) (int, bool) {
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
				idx := mesh.Index(pt)
				if pl.ClusterAt[idx] != place.None || d.IsDead(idx) {
					continue
				}
				if clusterFits(p, c, cons, d.CapScale(idx)) {
					return idx, true
				}
			}
		}
	}
	return 0, false
}

// interconnectEnergy is M_ec (Eq. 9) computed directly: the per-spike energy
// of every directed connection at its current placement distance.
func interconnectEnergy(p *pcn.PCN, pl *place.Placement, cost hw.CostModel) float64 {
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

// clusterCoords tabulates pl.Of(c) for every cluster, so an O(E) walk pays
// a load instead of a division per edge endpoint.
func clusterCoords(pl *place.Placement) []cellXY {
	pos := make([]cellXY, len(pl.PosOf))
	for c, idx := range pl.PosOf {
		pt := pl.Mesh.Coord(int(idx))
		pos[c] = cellXY{int32(pt.X), int32(pt.Y)}
	}
	return pos
}
