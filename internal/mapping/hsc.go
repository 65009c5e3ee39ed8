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
// along the given space-filling curve over the mesh. Any curve.Curve
// works; the paper's approach uses the Hilbert curve, with ZigZag and Circle
// retained for the Figure 6/8 comparisons.
func InitialPlacement(p *pcn.PCN, mesh hw.Mesh, c curve.Curve) (*place.Placement, error) {
	return InitialPlacementDefects(p, mesh, c, nil, hw.Constraints{})
}

// InitialPlacementDefects is InitialPlacement on a defective mesh: the curve
// order is preserved, but dead cells are skipped along it (so locality
// degrades gracefully instead of collapsing), and — when cons is constrained
// — capacity-degraded cells that cannot hold the next cluster are left
// empty. When cons.SpareRows reserves bottom rows as hot spares, the curve
// skips those rows too, leaving them free for RemapRows. It returns an error
// wrapping place.ErrUnplaceable when the healthy usable mesh cannot hold the
// PCN, and one wrapping place.ErrBadConfig for an invalid mesh or a curve
// whose visit order is not a permutation of the mesh's cells.
func InitialPlacementDefects(p *pcn.PCN, mesh hw.Mesh, c curve.Curve, d *hw.DefectMap, cons hw.Constraints) (*place.Placement, error) {
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
	if !toposort.Monotone(p) {
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
	// Rank j goes to the j-th cell along the curve that is in a usable row,
	// alive, and — on a degraded core — large enough for that cluster.
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
		if !clusterFits(p, int(cl), cons, d.CapScale(idx)) {
			continue // degraded cell too small for this cluster; leave empty
		}
		pl.PosOf[cl] = int32(idx)
		pl.ClusterAt[idx] = cl
		j++
	}
	if j < p.NumClusters {
		return nil, fmt.Errorf("mapping: %d of %d clusters left unplaced by degraded capacities: %w",
			p.NumClusters-j, p.NumClusters, place.ErrUnplaceable)
	}
	return pl, nil
}

// InitialPlacementWorkers is InitialPlacementDefects; workers is ignored.
//
// Deprecated: the placement is one sequential curve walk. The name stays
// only while the benchmark harness compiles against it (ROADMAP item 1);
// call InitialPlacementDefects.
func InitialPlacementWorkers(p *pcn.PCN, mesh hw.Mesh, c curve.Curve, d *hw.DefectMap, cons hw.Constraints, workers int) (*place.Placement, error) {
	return InitialPlacementDefects(p, mesh, c, d, cons)
}

// clusterFits reports whether cluster c respects the constraints scaled to
// the core's usable-capacity fraction. Full-capacity cores always fit: the
// partitioner already enforced the base constraints.
func clusterFits(p *pcn.PCN, c int, cons hw.Constraints, scale float64) bool {
	if scale >= 1 {
		return true
	}
	sc := cons.Scale(scale)
	return sc.FitsNeurons(int(p.Neurons[c])) && sc.FitsSynapses(int(p.Synapses[c]))
}
