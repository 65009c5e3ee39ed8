package expt

import (
	"fmt"
	"io"
	"math"
	"text/tabwriter"

	"snnmap/internal/hw"
	"snnmap/internal/mapping"
	"snnmap/internal/metrics"
	"snnmap/internal/noc"
	"snnmap/internal/place"
)

// MeshForHealthy returns the smallest square mesh whose *healthy* core count
// holds n clusters when a deadFrac fraction of cores is defective —
// hw.MeshFor with fault headroom, so faulty-mesh sweeps stay placeable.
func MeshForHealthy(n int, deadFrac float64) hw.Mesh {
	if deadFrac <= 0 {
		return hw.MeshFor(n)
	}
	if deadFrac >= 1 {
		deadFrac = 0.99
	}
	side := int(math.Ceil(math.Sqrt(float64(n) / (1 - deadFrac))))
	if side < 1 {
		side = 1
	}
	// Injectors round the dead count; grow until the guarantee actually
	// holds for this side length.
	for int(float64(side*side)*deadFrac)+n > side*side {
		side++
	}
	return hw.MustMesh(side, side)
}

// FaultRow is one dead-core fraction of a fault sweep.
type FaultRow struct {
	DeadFrac    float64
	Mesh        hw.Mesh
	Degradation metrics.Degradation
	Energy      float64 // M_ec of the placement (Eq. 9 closed form)
	Sim         noc.Result
	Remap       mapping.RemapStats
}

// FaultSweep maps one workload onto progressively sicker meshes: at each
// dead-core fraction it injects a seeded uniform defect map (plus failed
// links at linkFrac), runs the proposed HSC+FD method around the defects,
// validates that no cluster landed on a dead core, simulates the spike
// traffic on the matching faulty NoC with fault-aware routing, and finally
// kills one more (occupied) core and repairs the placement with the
// incremental Remap — reporting delivered fraction, migration cost and ΔM_ec
// per row.
func FaultSweep(w io.Writer, workload string, fracs []float64, linkFrac float64, opts RunOptions) error {
	wl, err := WorkloadByName(workload)
	if err != nil {
		return err
	}
	p, _, err := wl.Build()
	if err != nil {
		return err
	}
	opts = opts.withDefaults()
	rows, err := faultSweepRows(wl, fracs, linkFrac, opts)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Fault sweep on %s: %d clusters, uniform dead cores + %.1f%% failed links, seed %d\n",
		wl.Name, p.NumClusters, 100*linkFrac, opts.Seed)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "DeadFrac\tMesh\tDead\tLinks\tHealthyUtil\tEnergy\tDelivered\tDropped\tRemapMoved\tRemapFrac\tRemapdM_ec")
	for _, r := range rows {
		g := r.Degradation
		fmt.Fprintf(tw, "%.0f%%\t%v\t%d\t%d\t%.3f\t%.4g\t%.4f\t%d\t%d\t%.2f%%\t%+.4g\n",
			100*r.DeadFrac, r.Mesh, g.DeadCores, g.FailedLinks, g.HealthyUtilization,
			r.Energy, r.Sim.DeliveredFraction(), r.Sim.Dropped,
			r.Remap.Moved, 100*r.Remap.MovedFrac, r.Remap.DeltaEnergy())
	}
	return tw.Flush()
}

// faultSweepRows runs the sweep and returns structured rows (shared by the
// report and by tests).
func faultSweepRows(wl *Workload, fracs []float64, linkFrac float64, opts RunOptions) ([]FaultRow, error) {
	p, _, err := wl.Build()
	if err != nil {
		return nil, err
	}
	method := Proposed()
	var rows []FaultRow
	for _, frac := range fracs {
		mesh := MeshForHealthy(p.NumClusters, frac)
		d := hw.InjectUniform(mesh, frac, linkFrac, opts.Seed)
		ro := opts
		ro.Defects = d
		pl, _, err := method.Run(p, mesh, ro)
		if err != nil {
			return nil, fmt.Errorf("expt: fault sweep at dead=%.2f: %w", frac, err)
		}
		if err := pl.Validate(); err != nil {
			return nil, fmt.Errorf("expt: fault sweep at dead=%.2f: %w", frac, err)
		}
		if err := pl.ValidateDefects(d); err != nil {
			return nil, fmt.Errorf("expt: fault sweep at dead=%.2f: %w", frac, err)
		}
		sum := metrics.Evaluate(p, pl, opts.Cost, metrics.Options{Workers: opts.Workers})
		res, err := noc.Simulate(p, pl, noc.Config{
			Cost:          opts.Cost,
			Defects:       d,
			SpikesPerUnit: SimSpikesPerUnit(p.TotalWeight()),
		})
		if err != nil {
			return nil, fmt.Errorf("expt: fault sweep at dead=%.2f: simulate: %w", frac, err)
		}

		// Field failure: kill one more occupied core and repair in place —
		// only when a spare (free, healthy) core exists to migrate to.
		d2, victim := d, -1
		if freeHealthy(d, pl) > 0 {
			d2, victim = killOccupied(d, pl)
		}
		var rs mapping.RemapStats
		if victim >= 0 {
			pl2 := pl.Clone()
			rs, err = mapping.Remap(p, pl2, d2, ro.Constraints, opts.Cost)
			if err != nil {
				return nil, fmt.Errorf("expt: fault sweep at dead=%.2f: remap: %w", frac, err)
			}
		}
		rows = append(rows, FaultRow{
			DeadFrac: frac, Mesh: mesh, Degradation: metrics.EvaluateDegradation(p, pl, d),
			Energy: sum.Energy, Sim: res, Remap: rs,
		})
	}
	return rows, nil
}

// SimSpikesPerUnit is the noc.Config.SpikesPerUnit that keeps a simulation
// of a PCN with this total traffic below roughly one million spikes.
func SimSpikesPerUnit(totalWeight float64) float64 {
	if totalWeight <= 1_000_000 {
		return 1
	}
	return 1_000_000 / totalWeight
}

// freeHealthy counts unoccupied, alive cores — the spare pool a remap can
// migrate into.
func freeHealthy(d *hw.DefectMap, pl *place.Placement) int {
	n := 0
	for idx := range pl.ClusterAt {
		if pl.ClusterAt[idx] == place.None && !d.IsDead(idx) {
			n++
		}
	}
	return n
}

// killOccupied clones d with the first occupied healthy core marked dead,
// returning the clone and the victim core (-1 when every core is empty or
// dead — nothing to kill).
func killOccupied(d *hw.DefectMap, pl *place.Placement) (*hw.DefectMap, int) {
	mesh := d.Mesh()
	for idx := 0; idx < mesh.Cores(); idx++ {
		if d.IsDead(idx) || pl.ClusterAt[idx] == place.None {
			continue
		}
		d2 := d.Clone()
		d2.MarkDead(idx)
		return d2, idx
	}
	return d, -1
}
