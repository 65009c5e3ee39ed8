package expt

import (
	"fmt"
	"io"
	"text/tabwriter"

	"snnmap/internal/hw"
	"snnmap/internal/mapping"
	"snnmap/internal/metrics"
	"snnmap/internal/place"
)

// RecoveryRow is one spare-row provisioning level of a recovery sweep.
type RecoveryRow struct {
	SpareRows  int
	Mesh       hw.Mesh
	KilledRow  int
	RowShift   mapping.RowRemapStats
	PerCluster mapping.RemapStats
	// RowShiftDeg and PerClusterDeg are the degradation summaries of the
	// two repaired placements on the same defect map.
	RowShiftDeg, PerClusterDeg metrics.Degradation
}

// RecoverySweep exercises the spare-row redundancy path end to end: for each
// provisioning level it maps the workload onto a mesh grown by that many
// reserved spare rows (Constraints.SpareRows keeps them empty through
// placement and fine-tuning), kills one entire occupied row — the failure
// pattern of a shared power or clock spine — and repairs two clones of the
// placement: once with the wholesale row shift (RemapRows) and once with
// per-cluster Remap, reporting migration cost and ΔM_ec side by side. With
// zero reserved spares the mesh still gets one unreserved row of slack (so
// both repair paths stay feasible), but fine-tuning is free to scatter
// clusters into it — the comparison then shows what reservation buys.
func RecoverySweep(w io.Writer, workload string, spareRows []int, opts RunOptions) error {
	wl, err := WorkloadByName(workload)
	if err != nil {
		return err
	}
	p, _, err := wl.Build()
	if err != nil {
		return err
	}
	opts = opts.withDefaults()
	rows, err := recoveryRows(wl, spareRows, opts)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Row-failure recovery on %s: %d clusters, one full row killed, row-shift vs per-cluster repair\n",
		wl.Name, p.NumClusters)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Spares\tMesh\tKilledRow\tShiftRows\tShiftMoved\tShiftFallback\tShiftdM_ec\tRemapMoved\tRemapdM_ec")
	for _, r := range rows {
		fmt.Fprintf(tw, "%d\t%v\t%d\t%d\t%d\t%d\t%+.4g\t%d\t%+.4g\n",
			r.SpareRows, r.Mesh, r.KilledRow,
			r.RowShift.RowsShifted, r.RowShift.RowMoved, r.RowShift.FallbackMoved, r.RowShift.DeltaEnergy(),
			r.PerCluster.Moved, r.PerCluster.DeltaEnergy())
	}
	return tw.Flush()
}

// recoveryRows runs the sweep and returns structured rows (shared by the
// report and by tests).
func recoveryRows(wl *Workload, spareRows []int, opts RunOptions) ([]RecoveryRow, error) {
	p, _, err := wl.Build()
	if err != nil {
		return nil, err
	}
	method := Proposed()
	var rows []RecoveryRow
	for _, spares := range spareRows {
		// Grow the mesh by the reserved rows so the usable region still
		// holds the workload — at least one extra row, so that even with
		// zero reserved spares both repair paths have free cells to move
		// into (that unreserved slack row is fair game for fine-tuning, so
		// unlike a reserved spare it is not guaranteed empty at repair time).
		base := hw.MeshFor(p.NumClusters)
		extra := spares
		if extra < 1 {
			extra = 1
		}
		mesh := hw.MustMesh(base.Rows+extra, base.Cols)
		ro := opts
		ro.Constraints.SpareRows = spares
		pl, _, err := method.Run(p, mesh, ro)
		if err != nil {
			return nil, fmt.Errorf("expt: recovery sweep at spares=%d: %w", spares, err)
		}
		if err := pl.Validate(); err != nil {
			return nil, fmt.Errorf("expt: recovery sweep at spares=%d: %w", spares, err)
		}

		// Kill the first row that holds at least one cluster.
		victim := -1
		for r := 0; r < mesh.Rows && victim < 0; r++ {
			for y := 0; y < mesh.Cols; y++ {
				if pl.ClusterAt[r*mesh.Cols+y] != place.None {
					victim = r
					break
				}
			}
		}
		if victim < 0 {
			return nil, fmt.Errorf("expt: recovery sweep at spares=%d: empty placement", spares)
		}
		d := hw.NewDefectMap(mesh)
		for y := 0; y < mesh.Cols; y++ {
			d.MarkDead(victim*mesh.Cols + y)
		}

		plShift, plRemap := pl.Clone(), pl.Clone()
		shift, err := mapping.RemapRows(p, plShift, d, ro.Constraints, opts.Cost)
		if err != nil {
			return nil, fmt.Errorf("expt: recovery sweep at spares=%d: row shift: %w", spares, err)
		}
		per, err := mapping.Remap(p, plRemap, d, ro.Constraints, opts.Cost)
		if err != nil {
			return nil, fmt.Errorf("expt: recovery sweep at spares=%d: remap: %w", spares, err)
		}
		if err := plShift.ValidateDefects(d); err != nil {
			return nil, fmt.Errorf("expt: recovery sweep at spares=%d: row shift left invalid placement: %w", spares, err)
		}
		if err := plRemap.ValidateDefects(d); err != nil {
			return nil, fmt.Errorf("expt: recovery sweep at spares=%d: remap left invalid placement: %w", spares, err)
		}
		rows = append(rows, RecoveryRow{
			SpareRows: spares, Mesh: mesh, KilledRow: victim,
			RowShift: shift, PerCluster: per,
			RowShiftDeg:   metrics.EvaluateDegradation(p, plShift, d).WithRemap(shift.Moved, shift.MovedFrac, shift.DeltaEnergy()),
			PerClusterDeg: metrics.EvaluateDegradation(p, plRemap, d).WithRemap(per.Moved, per.MovedFrac, per.DeltaEnergy()),
		})
	}
	return rows, nil
}
