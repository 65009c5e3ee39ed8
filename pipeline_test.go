package snnmap_test

import (
	"fmt"
	"testing"

	"snnmap"
)

// TestPipelineProperties runs the proposed pipeline (Hilbert + FD with u_c)
// across the small nets of the model zoo, on a pristine MeshFor mesh and on
// a larger mesh with one spare row and 2 % uniformly dead cores (one defect
// map per seed; the pristine mesh has no seed), at workers 1 and 3. For every
// run it asserts:
//
//   - the placement is valid, and every cluster sits on a healthy core above
//     the spare rows;
//   - FD ends at or below the energy it started from;
//   - workers 3 gives the same PosOf, FDStats (Elapsed aside) and Summary as
//     workers 1;
//   - multicast routing spends strictly less energy than unicast;
//   - on the faulty mesh, after the first occupied row dies, RemapRows and
//     Remap both leave valid placements and RemapRows is never worse than
//     per-cluster Remap (rowshift.go's promise).
func TestPipelineProperties(t *testing.T) {
	nets := []struct {
		name string
		net  func() *snnmap.Net
	}{
		{"LeNet-MNIST", snnmap.LeNetMNIST},
		{"MobileNet", snnmap.MobileNet},
		{"ResNet", snnmap.ResNet},
		{"DNN_65K", snnmap.DNN65K},
		{"CNN_65K", snnmap.CNN65K},
	}
	cost := snnmap.DefaultCostModel()
	for _, n := range nets {
		p, err := snnmap.Expand(n.net(), snnmap.DefaultPartition())
		if err != nil {
			t.Fatalf("%s: %v", n.name, err)
		}
		side := snnmap.MeshFor(p.NumClusters).Rows
		t.Run(n.name+"/pristine", func(t *testing.T) {
			checkPipeline(t, p, snnmap.MeshFor(p.NumClusters), nil, snnmap.Constraints{}, cost)
		})
		for _, seed := range []int64{1, 2} {
			t.Run(fmt.Sprintf("%s/faulty/seed%d", n.name, seed), func(t *testing.T) {
				mesh, err := snnmap.NewMesh(side+3, side+2)
				if err != nil {
					t.Fatal(err)
				}
				d := snnmap.InjectUniform(mesh, 0.02, 0, seed)
				checkPipeline(t, p, mesh, d, snnmap.Constraints{SpareRows: 1}, cost)
			})
		}
	}
}

// checkPipeline maps p at workers 1 and 3 and asserts TestPipelineProperties'
// invariants; d == nil means a pristine mesh.
func checkPipeline(t *testing.T, p *snnmap.PCN, mesh snnmap.Mesh, d *snnmap.DefectMap, cons snnmap.Constraints, cost snnmap.CostModel) {
	t.Helper()
	var (
		base    snnmap.MapResult
		baseSum snnmap.Summary
	)
	for _, workers := range []int{1, 3} {
		cfg := snnmap.DefaultConfig()
		cfg.FD.Workers = workers
		cfg.Defects = d
		cfg.Constraints = cons
		res, err := snnmap.Map(p, mesh, cfg)
		if err != nil {
			t.Fatalf("workers %d: %v", workers, err)
		}
		pl := res.Placement
		if err := pl.Validate(); err != nil {
			t.Fatalf("workers %d: %v", workers, err)
		}
		if err := pl.ValidateDefects(d); err != nil {
			t.Fatalf("workers %d: %v", workers, err)
		}
		usable := cons.UsableRows(mesh)
		for c, idx := range pl.PosOf {
			if row := int(idx) / mesh.Cols; row >= usable {
				t.Fatalf("workers %d: cluster %d on spare row %d (usable rows %d)", workers, c, row, usable)
			}
		}
		if res.FD.FinalEnergy > res.FD.InitialEnergy {
			t.Errorf("workers %d: FD energy rose %v → %v", workers, res.FD.InitialEnergy, res.FD.FinalEnergy)
		}
		sum, err := snnmap.Evaluate(p, pl, cost, snnmap.MetricOptions{Workers: workers})
		if err != nil {
			t.Fatalf("workers %d: %v", workers, err)
		}
		if mc := snnmap.MulticastEnergy(p, pl, cost); !(mc.Energy < mc.UnicastEnergy) {
			t.Errorf("workers %d: multicast energy %v not below unicast %v", workers, mc.Energy, mc.UnicastEnergy)
		}
		res.FD.Elapsed = 0
		if workers == 1 {
			base, baseSum = res, sum
			continue
		}
		for c := range pl.PosOf {
			if pl.PosOf[c] != base.Placement.PosOf[c] {
				t.Fatalf("workers %d: cluster %d on core %d, workers 1 put it on %d", workers, c, pl.PosOf[c], base.Placement.PosOf[c])
			}
		}
		if res.FD != base.FD {
			t.Errorf("workers %d: FDStats %+v, workers 1 gave %+v", workers, res.FD, base.FD)
		}
		if sum != baseSum {
			t.Errorf("workers %d: Summary %v, workers 1 gave %v", workers, sum, baseSum)
		}
	}
	if d == nil {
		return
	}

	// The first occupied row fails in the field.
	first := mesh.Rows
	for _, idx := range base.Placement.PosOf {
		first = min(first, int(idx)/mesh.Cols)
	}
	d2 := d.Clone()
	for col := 0; col < mesh.Cols; col++ {
		d2.MarkDead(first*mesh.Cols + col)
	}
	byRow := base.Placement.Clone()
	rows, err := snnmap.RemapRows(p, byRow, d2, cons, cost)
	if err != nil {
		t.Fatalf("RemapRows: %v", err)
	}
	if err := byRow.ValidateDefects(d2); err != nil {
		t.Fatalf("RemapRows: %v", err)
	}
	byCluster := base.Placement.Clone()
	single, err := snnmap.Remap(p, byCluster, d2, cons, cost)
	if err != nil {
		t.Fatalf("Remap: %v", err)
	}
	if err := byCluster.ValidateDefects(d2); err != nil {
		t.Fatalf("Remap: %v", err)
	}
	if rows.EnergyAfter > single.EnergyAfter {
		t.Errorf("RemapRows energy %v worse than Remap %v", rows.EnergyAfter, single.EnergyAfter)
	}
}
