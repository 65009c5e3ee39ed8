package mapping

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"snnmap/internal/curve"
	"snnmap/internal/hw"
	"snnmap/internal/place"
)

func TestInitialPlacementDefectsAvoidsDeadCores(t *testing.T) {
	p := chainPCN(t, 30)
	mesh := hw.MustMesh(6, 6)
	d := hw.NewDefectMap(mesh)
	for _, idx := range []int{0, 7, 14, 21, 35} {
		d.MarkDead(idx)
	}
	pl, err := InitialPlacementDefects(p, mesh, curve.Hilbert{}, d, hw.Constraints{})
	if err != nil {
		t.Fatal(err)
	}
	if err := pl.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := pl.ValidateDefects(d); err != nil {
		t.Fatal(err)
	}
	for idx := 0; idx < mesh.Cores(); idx++ {
		if d.IsDead(idx) && pl.ClusterAt[idx] != place.None {
			t.Errorf("cluster %d placed on dead core %d", pl.ClusterAt[idx], idx)
		}
	}
}

func TestMapAvoidsDeadCoresWithFD(t *testing.T) {
	p := chainPCN(t, 24)
	mesh := hw.MustMesh(6, 6)
	d := hw.InjectUniform(mesh, 0.15, 0, 11)
	cfg := Default()
	cfg.Defects = d
	r, err := Map(p, mesh, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Placement.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := r.Placement.ValidateDefects(d); err != nil {
		t.Fatal(err)
	}
	if r.FD.FinalEnergy > r.FD.InitialEnergy {
		t.Errorf("FD around defects worsened energy: %g -> %g", r.FD.InitialEnergy, r.FD.FinalEnergy)
	}
}

func TestInitialPlacementDefectsDegradedCapacity(t *testing.T) {
	p := chainPCN(t, 15)
	mesh := hw.MustMesh(4, 4)
	cons := hw.Constraints{NeuronsPerCore: 1}
	d := hw.NewDefectMap(mesh)
	if err := d.Degrade(0, 0.5); err != nil {
		t.Fatal(err)
	}
	// Each chain cluster holds one neuron; a half-capacity core holds zero,
	// so core 0 must stay empty and the other 15 cores fill up.
	pl, err := InitialPlacementDefects(p, mesh, curve.Hilbert{}, d, cons)
	if err != nil {
		t.Fatal(err)
	}
	if pl.ClusterAt[0] != place.None {
		t.Errorf("cluster %d placed on degraded core 0", pl.ClusterAt[0])
	}
	if err := pl.ValidateDefects(d); err != nil {
		t.Fatal(err)
	}
	// One more cluster no longer fits anywhere.
	if _, err := InitialPlacementDefects(chainPCN(t, 16), mesh, curve.Hilbert{}, d, cons); !errors.Is(err, ErrUnplaceable) {
		t.Errorf("degraded overflow: got %v, want ErrUnplaceable", err)
	}
}

// TestInitialPlacementDefectsOverflow also pins the error's arithmetic: the
// dead cores it reports are the ones subtracted from the usable rows, not
// those in reserved spare rows.
func TestInitialPlacementDefectsOverflow(t *testing.T) {
	mesh := hw.MustMesh(4, 4)
	for _, tc := range []struct {
		clusters int
		dead     []int
		cons     hw.Constraints
		want     string
	}{
		{14, []int{1, 2, 3}, hw.Constraints{}, "healthy capacity 13 (4 usable rows, 3 dead cores)"},
		{12, []int{5, 13}, hw.Constraints{SpareRows: 1}, "healthy capacity 11 (3 usable rows, 1 dead cores)"},
	} {
		d := hw.NewDefectMap(mesh)
		for _, idx := range tc.dead {
			d.MarkDead(idx)
		}
		_, err := InitialPlacementDefects(chainPCN(t, tc.clusters), mesh, curve.Hilbert{}, d, tc.cons)
		if !errors.Is(err, ErrUnplaceable) {
			t.Fatalf("%d clusters, dead %v: got %v, want ErrUnplaceable", tc.clusters, tc.dead, err)
		}
		if !errors.Is(err, place.ErrUnplaceable) {
			t.Error("sentinel must also match the place package's definition")
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("error %q does not report %q", err, tc.want)
		}
	}
}

// TestMonotoneDegradation grows a nested dead-core set (same seed, rising
// fraction) and checks the placement degrades gracefully: it stays legal at
// every level and the interconnect energy of the curve layout never collapses
// below the pristine optimum (locality degrades, it doesn't improve).
func TestMonotoneDegradation(t *testing.T) {
	p := chainPCN(t, 40)
	mesh := hw.MustMesh(8, 8)
	cost := hw.DefaultCostModel()
	base := -1.0
	prevDead := -1
	for _, frac := range []float64{0, 0.05, 0.1, 0.2, 0.3} {
		d := hw.InjectUniform(mesh, frac, 0, 21)
		pl, err := InitialPlacementDefects(p, mesh, curve.Hilbert{}, d, hw.Constraints{})
		if err != nil {
			t.Fatalf("dead=%.2f: %v", frac, err)
		}
		if err := pl.ValidateDefects(d); err != nil {
			t.Fatalf("dead=%.2f: %v", frac, err)
		}
		if d.NumDead() < prevDead {
			t.Fatalf("dead count shrank at frac %.2f", frac)
		}
		prevDead = d.NumDead()
		e := interconnectEnergy(p, pl, cost)
		if base < 0 {
			base = e
		}
		if e < base-1e-9 {
			t.Errorf("dead=%.2f: energy %g beat the pristine layout %g", frac, e, base)
		}
	}
}

func TestRemapSingleFailure(t *testing.T) {
	p := chainPCN(t, 40)
	mesh := hw.MustMesh(7, 7) // 9 spare cores
	cost := hw.DefaultCostModel()
	r, err := Map(p, mesh, Default())
	if err != nil {
		t.Fatal(err)
	}
	pl := r.Placement
	// A core fails in the field under cluster 12.
	victim := mesh.Index(pl.Of(12))
	d := hw.NewDefectMap(mesh)
	d.MarkDead(victim)
	st, err := Remap(p, pl, d, hw.Constraints{}, cost)
	if err != nil {
		t.Fatal(err)
	}
	if st.Moved != 1 {
		t.Fatalf("single failure moved %d clusters, want 1", st.Moved)
	}
	if st.MovedFrac > 0.05 {
		t.Fatalf("MovedFrac = %g, want <= 0.05", st.MovedFrac)
	}
	if st.MaxMoveDist < 1 {
		t.Fatal("moved cluster reported zero travel distance")
	}
	if err := pl.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := pl.ValidateDefects(d); err != nil {
		t.Fatal(err)
	}
	if pl.ClusterAt[victim] != place.None {
		t.Fatal("dead core still occupied after remap")
	}
}

func TestRemapNoDefectsIsNoop(t *testing.T) {
	p := chainPCN(t, 9)
	r, err := Map(p, hw.MustMesh(3, 3), Config{Curve: curve.Hilbert{}})
	if err != nil {
		t.Fatal(err)
	}
	st, err := Remap(p, r.Placement, nil, hw.Constraints{}, hw.DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	if st.Moved != 0 || st.DeltaEnergy() != 0 {
		t.Fatalf("nil defect map must not move anything: moved=%d delta=%g", st.Moved, st.DeltaEnergy())
	}
}

func TestRemapUnplaceable(t *testing.T) {
	p := chainPCN(t, 9)
	mesh := hw.MustMesh(3, 3) // full mesh, no spare
	r, err := Map(p, mesh, Config{Curve: curve.Hilbert{}})
	if err != nil {
		t.Fatal(err)
	}
	d := hw.NewDefectMap(mesh)
	d.MarkDead(4)
	_, err = Remap(p, r.Placement, d, hw.Constraints{}, hw.DefaultCostModel())
	if !errors.Is(err, ErrUnplaceable) {
		t.Errorf("remap without spares: got %v, want ErrUnplaceable", err)
	}
}

func TestMapContextCanceled(t *testing.T) {
	p := chainPCN(t, 16)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	_, err := MapContext(ctx, p, hw.MustMesh(4, 4), Default())
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("pre-canceled MapContext: got %v, want ErrCanceled", err)
	}
	if el := time.Since(start); el > 100*time.Millisecond {
		t.Fatalf("cancellation took %v, want < 100ms", el)
	}
}

func TestFinetuneContextCanceled(t *testing.T) {
	p := chainPCN(t, 16)
	mesh := hw.MustMesh(4, 4)
	pl, err := InitialPlacement(p, mesh, curve.Hilbert{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = FinetuneContext(ctx, p, pl, FDConfig{Potential: L2Sq{}})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("pre-canceled FinetuneContext: got %v, want ErrCanceled", err)
	}
}
