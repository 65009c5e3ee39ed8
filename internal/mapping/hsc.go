package mapping

import (
	"fmt"

	"snnmap/internal/curve"
	"snnmap/internal/hw"
	"snnmap/internal/pcn"
	"snnmap/internal/place"
	"snnmap/internal/toposort"
)

// InitialPlacement computes P_init = Hilbert ∘ Seq (Eq. 17): the PCN is
// linearized by Algorithm 2's topological sort and the sequence is laid
// along the given space-filling curve over the mesh. Any curve.Curve works
// (nil: the paper's Hilbert curve), with ZigZag and Circle retained for the
// Figure 6/8 comparisons.
func InitialPlacement(p *pcn.PCN, mesh hw.Mesh, c curve.Curve) (*place.Placement, error) {
	return InitialPlacementDefects(p, mesh, c, nil, hw.Constraints{})
}

// InitialPlacementDefects is InitialPlacement on a defective mesh: the curve
// order is preserved, but dead cells are skipped along it (so locality
// degrades gracefully instead of collapsing). When cons.SpareRows reserves
// bottom rows as hot spares, the curve skips those rows too, leaving them
// free for RemapRows; cons is read for nothing else, since the partitioner
// already sized every cluster for one core. It returns an error
// wrapping place.ErrUnplaceable when the healthy usable mesh cannot hold the
// PCN, and one wrapping place.ErrBadConfig for an invalid mesh or a curve
// whose visit order is not a permutation of the mesh's cells.
func InitialPlacementDefects(p *pcn.PCN, mesh hw.Mesh, c curve.Curve, d *hw.DefectMap, cons hw.Constraints) (*place.Placement, error) {
	if c == nil {
		c = curve.Hilbert{}
	}
	if _, err := hw.NewMesh(mesh.Rows, mesh.Cols); err != nil {
		return nil, fmt.Errorf("mapping: %w: %v", place.ErrBadConfig, err)
	}
	if cons.SpareRows < 0 {
		return nil, fmt.Errorf("mapping: %w: negative SpareRows %d", place.ErrBadConfig, cons.SpareRows)
	}
	usableRows := cons.UsableRows(mesh)
	dead := 0
	for idx := 0; idx < usableRows*mesh.Cols; idx++ {
		if d.IsDead(idx) {
			dead++
		}
	}
	if healthy := usableRows*mesh.Cols - dead; p.NumClusters > healthy {
		return nil, fmt.Errorf("mapping: %d clusters exceed %v mesh healthy capacity %d (%d usable rows, %d dead cores): %w",
			p.NumClusters, mesh, healthy, usableRows, dead, place.ErrUnplaceable)
	}
	// Monotone PCNs (all partitioners emit clusters in layer order) have the
	// identity topological order, so the rank → cluster table is skipped.
	var order []int32
	if !p.Monotone() {
		order = toposort.Order(p)
	}
	pl, err := place.New(p.NumClusters, mesh)
	if err != nil {
		return nil, err
	}
	pts := c.Points(mesh.Rows, mesh.Cols)
	if len(pts) != mesh.Cores() {
		return nil, fmt.Errorf("mapping: %w: curve %q visits %d cells of the %v mesh, want %d",
			place.ErrBadConfig, c.Name(), len(pts), mesh, mesh.Cores())
	}
	// Rank j goes to the j-th cell along the curve that is in a usable row
	// and alive.
	j := 0
	for s, pt := range pts {
		if j == p.NumClusters {
			break
		}
		if !mesh.Contains(pt) {
			return nil, fmt.Errorf("mapping: %w: curve %q step %d visits %v outside the %v mesh",
				place.ErrBadConfig, c.Name(), s, pt, mesh)
		}
		if pt.X >= usableRows {
			continue // reserved spare row
		}
		idx := mesh.Index(pt)
		if d.IsDead(idx) {
			continue
		}
		if pl.ClusterAt[idx] != place.None {
			return nil, fmt.Errorf("mapping: %w: curve %q step %d revisits %v",
				place.ErrBadConfig, c.Name(), s, pt)
		}
		cl := int32(j)
		if order != nil {
			cl = order[j]
		}
		pl.PosOf[cl] = int32(idx)
		pl.ClusterAt[idx] = cl
		j++
	}
	if j < p.NumClusters {
		// The healthy usable cells outnumber the clusters, so the curve
		// repeated a cell it skips and missed one it would have filled.
		return nil, fmt.Errorf("mapping: %w: curve %q misses healthy cells of the %v mesh",
			place.ErrBadConfig, c.Name(), mesh)
	}
	return pl, nil
}

// InitialPlacementWorkers is InitialPlacementDefects; workers is ignored.
//
// Deprecated: the placement is one sequential curve walk. The name stays
// only while the benchmark harness compiles against it (ROADMAP item 8(c));
// call InitialPlacementDefects.
func InitialPlacementWorkers(p *pcn.PCN, mesh hw.Mesh, c curve.Curve, d *hw.DefectMap, cons hw.Constraints, workers int) (*place.Placement, error) {
	return InitialPlacementDefects(p, mesh, c, d, cons)
}
