package expt

import (
	"bytes"
	"strings"
	"testing"

	"snnmap/internal/hw"
	"snnmap/internal/mapping"
	"snnmap/internal/noc"
	"snnmap/internal/pcn"
	"snnmap/internal/snn"
)

func TestMeshForHealthy(t *testing.T) {
	if m := MeshForHealthy(16, 0); m != hw.MeshFor(16) {
		t.Fatalf("no faults must fall back to hw.MeshFor: got %v", m)
	}
	for _, tc := range []struct {
		n    int
		frac float64
	}{
		{16, 0.05}, {16, 0.25}, {100, 0.1}, {900, 0.05}, {1, 0.5}, {7, 0.99},
	} {
		m := MeshForHealthy(tc.n, tc.frac)
		dead := int(float64(m.Cores()) * tc.frac)
		if m.Cores()-dead < tc.n {
			t.Errorf("MeshForHealthy(%d, %g) = %v: %d healthy cores cannot hold %d clusters",
				tc.n, tc.frac, m, m.Cores()-dead, tc.n)
		}
	}
}

// TestFaultAcceptance32x32 is the issue's headline scenario: a 32x32 mesh
// with 5% seeded dead cores (plus failed links) still maps a ~900-cluster
// workload, places nothing on a dead core, and the fault-aware NoC run on
// the same defect map delivers at least 99% of the spike traffic.
func TestFaultAcceptance32x32(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second mapping run")
	}
	g := snn.FullyConnected(900, 1)
	res, err := pcn.Partition(g, pcn.PartitionConfig{Constraints: hw.Constraints{NeuronsPerCore: 1}})
	if err != nil {
		t.Fatal(err)
	}
	p := res.PCN
	mesh := hw.MustMesh(32, 32)
	d := hw.InjectUniform(mesh, 0.05, 0.02, 17)
	if d.NumDead() == 0 || d.NumFailedLinks() == 0 {
		t.Fatalf("injector produced a healthy mesh: %d dead, %d links", d.NumDead(), d.NumFailedLinks())
	}
	cfg := mapping.Default()
	cfg.Defects = d
	r, err := mapping.Map(p, mesh, cfg)
	if err != nil {
		t.Fatal(err)
	}
	pl := r.Placement
	if err := pl.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := pl.ValidateDefects(d); err != nil {
		t.Fatal(err)
	}
	sim, err := noc.Simulate(p, pl, noc.Config{Defects: d, FaultAware: true})
	if err != nil {
		t.Fatal(err)
	}
	if sim.Injected != sim.Delivered+sim.Dropped {
		t.Fatalf("accounting broken: injected=%d delivered=%d dropped=%d", sim.Injected, sim.Delivered, sim.Dropped)
	}
	if f := sim.DeliveredFraction(); f < 0.99 {
		t.Errorf("delivered fraction %.4f < 0.99 on 5%% dead + 2%% failed links", f)
	}
}

func TestFaultSweepReport(t *testing.T) {
	var buf bytes.Buffer
	err := FaultSweep(&buf, "LeNet-MNIST", []float64{0, 0.2}, 0.05, RunOptions{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Fault sweep on LeNet-MNIST", "DeadFrac", "Delivered", "0%", "20%"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

func TestFaultSweepRejectsUnknownWorkload(t *testing.T) {
	if err := FaultSweep(&bytes.Buffer{}, "nope", []float64{0}, 0, RunOptions{}); err == nil {
		t.Fatal("unknown workload must fail")
	}
}
