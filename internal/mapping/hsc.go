package mapping

import (
	"fmt"

	"snnmap/internal/curve"
	"snnmap/internal/hw"
	"snnmap/internal/par"
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
	return InitialPlacementWorkers(p, mesh, c, nil, hw.Constraints{}, 1)
}

// InitialPlacementDefects is InitialPlacement on a defective mesh: the curve
// order is preserved, but dead cells are skipped along it (so locality
// degrades gracefully instead of collapsing), and — when cons is constrained
// — capacity-degraded cells that cannot hold the next cluster are left
// empty. When cons.SpareRows reserves bottom rows as hot spares, the curve
// skips those rows too, leaving them free for RemapRows. It returns an error
// wrapping place.ErrUnplaceable when the healthy usable mesh cannot hold the
// PCN.
func InitialPlacementDefects(p *pcn.PCN, mesh hw.Mesh, c curve.Curve, d *hw.DefectMap, cons hw.Constraints) (*place.Placement, error) {
	return InitialPlacementWorkers(p, mesh, c, d, cons, 1)
}

// InitialPlacementWorkers is InitialPlacementDefects fanned out over up to
// workers goroutines (0 or 1 = sequential). The curve sequence is split into
// fixed chunks whose layout depends only on the mesh size — never on the
// worker count — and each chunk's cluster ranks follow from a prefix sum of
// per-chunk usable-cell counts, so every goroutine writes a disjoint,
// worker-count-independent set of placement slots: results are bit-identical
// at any workers value to the retained sequential curve walk. Meshes with
// capacity-degraded cells fall back to that sequential walk, because there
// the cell a cluster lands on depends on whether the preceding clusters fit
// the degraded cells before it.
func InitialPlacementWorkers(p *pcn.PCN, mesh hw.Mesh, c curve.Curve, d *hw.DefectMap, cons hw.Constraints, workers int) (*place.Placement, error) {
	if cons.SpareRows < 0 {
		return nil, fmt.Errorf("mapping: %w: negative SpareRows %d", place.ErrBadConfig, cons.SpareRows)
	}
	usableRows := cons.UsableRows(mesh)
	healthy := usableRows * mesh.Cols
	for idx := 0; idx < usableRows*mesh.Cols; idx++ {
		if d.IsDead(idx) {
			healthy--
		}
	}
	if p.NumClusters > healthy {
		return nil, fmt.Errorf("mapping: %d clusters exceed %v mesh healthy capacity %d (%d usable rows, %d dead cores): %w",
			p.NumClusters, mesh, healthy, usableRows, d.NumDead(), place.ErrUnplaceable)
	}
	if d.NumDegraded() > 0 {
		// Degraded capacities make the walk inherently sequential: whether a
		// cell is skipped depends on the cluster that reaches it.
		return initialPlacementSeq(p, mesh, c, d, cons, usableRows)
	}
	// Monotone PCNs (all partitioners emit clusters in layer order) have the
	// identity topological order, so the rank → cluster table is skipped
	// entirely; otherwise materialize it once.
	var order []int32
	if !toposort.Monotone(p) {
		order = toposort.Order(p)
	}
	pl, err := place.New(p.NumClusters, mesh)
	if err != nil {
		return nil, err
	}
	assign := func(rank, idx int) {
		cl := int32(rank)
		if order != nil {
			cl = order[rank]
		}
		pl.PosOf[cl] = int32(idx)
		pl.ClusterAt[idx] = cl
	}
	if usableRows == mesh.Rows && d.NumDead() == 0 {
		// Pristine mesh: curve step r holds the rank-r cluster directly.
		forChunks(workers, p.NumClusters, func(_, lo, hi int) {
			for r := lo; r < hi; r++ {
				assign(r, mesh.Index(c.At(mesh.Rows, mesh.Cols, r)))
			}
		})
		return pl, nil
	}
	// Defect-aware skip list, built once in two chunked passes instead of
	// rescanning per cluster: count the usable cells of each fixed chunk of
	// the curve sequence, prefix-sum the counts into per-chunk starting
	// ranks, then fill. A cell's rank is the number of usable cells before
	// it on the curve — a pure function of mesh and defects, so the fill is
	// chunk-order- and worker-count-independent.
	total := mesh.Rows * mesh.Cols
	usable := func(s int) (int, bool) {
		pt := c.At(mesh.Rows, mesh.Cols, s)
		if pt.X >= usableRows {
			return 0, false // reserved spare row
		}
		idx := mesh.Index(pt)
		return idx, !d.IsDead(idx)
	}
	counts := make([]int, par.Chunks(total))
	forChunks(workers, total, func(ci, lo, hi int) {
		n := 0
		for s := lo; s < hi; s++ {
			if _, ok := usable(s); ok {
				n++
			}
		}
		counts[ci] = n
	})
	starts := make([]int, len(counts))
	run := 0
	for ci, n := range counts {
		starts[ci] = run
		run += n
	}
	forChunks(workers, total, func(ci, lo, hi int) {
		r := starts[ci]
		for s := lo; s < hi && r < p.NumClusters; s++ {
			if idx, ok := usable(s); ok {
				assign(r, idx)
				r++
			}
		}
	})
	return pl, nil
}

// initialPlacementSeq is the retained sequential curve walk: the oracle the
// parallel fill is tested against, and the fallback for capacity-degraded
// meshes. usableRows and the healthy-capacity check are already validated by
// the caller.
func initialPlacementSeq(p *pcn.PCN, mesh hw.Mesh, c curve.Curve, d *hw.DefectMap, cons hw.Constraints, usableRows int) (*place.Placement, error) {
	order := toposort.Order(p)
	pts := curve.Shared(c, mesh.Rows, mesh.Cols)
	pl, err := place.New(p.NumClusters, mesh)
	if err != nil {
		return nil, err
	}
	j := 0
	for _, pt := range pts {
		if j >= len(order) {
			break
		}
		if pt.X >= usableRows {
			continue // reserved spare row
		}
		idx := mesh.Index(pt)
		if d.IsDead(idx) {
			continue
		}
		cluster := order[j]
		if !clusterFits(p, int(cluster), cons, d.CapScale(idx)) {
			continue // degraded cell too small for this cluster; leave empty
		}
		if err := pl.TryAssign(int(cluster), int32(idx)); err != nil {
			return nil, err
		}
		j++
	}
	if j < len(order) {
		return nil, fmt.Errorf("mapping: %d of %d clusters left unplaced by degraded capacities: %w",
			len(order)-j, len(order), place.ErrUnplaceable)
	}
	return pl, nil
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

// forChunks runs fn on par's fixed chunks of [0, n): chunk ci covers the
// ceil-stride range [lo, hi), which depends on n alone.
func forChunks(workers, n int, fn func(ci, lo, hi int)) {
	k := par.Chunks(n)
	chunk := (n + k - 1) / k
	par.Do(workers, k, func(ci int) {
		fn(ci, min(ci*chunk, n), min((ci+1)*chunk, n))
	})
}
