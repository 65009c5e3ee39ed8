package mapping

import (
	"testing"

	"snnmap/internal/curve"
	"snnmap/internal/hw"
	"snnmap/internal/pcn"
	"snnmap/internal/snn"
	"snnmap/internal/toposort"
)

func chainPCN(t *testing.T, n int) *pcn.PCN {
	t.Helper()
	g := snn.FullyConnected(n, 1)
	res, err := pcn.Partition(g, pcn.PartitionConfig{Constraints: hw.Constraints{NeuronsPerCore: 1}})
	if err != nil {
		t.Fatal(err)
	}
	return res.PCN
}

func TestInitialPlacementFollowsCurve(t *testing.T) {
	p := chainPCN(t, 16)
	mesh := hw.MustMesh(4, 4)
	for _, c := range []curve.Curve{curve.Hilbert{}, curve.ZigZag{}, curve.Circle{}} {
		pl, err := InitialPlacement(p, mesh, c)
		if err != nil {
			t.Fatal(err)
		}
		if err := pl.Validate(); err != nil {
			t.Fatalf("%s: %v", c.Name(), err)
		}
		// For a chain, topological order == index order, so cluster i sits
		// at the curve's i-th point (Eq. 17).
		pts := c.Points(4, 4)
		for i := 0; i < 16; i++ {
			if pl.Of(i) != pts[i] {
				t.Errorf("%s: cluster %d at %v, want %v", c.Name(), i, pl.Of(i), pts[i])
			}
		}
	}
}

func TestInitialPlacementConsecutiveClustersAdjacent(t *testing.T) {
	// The paper's locality claim: with a Hilbert layout, chain neighbors
	// land on mesh neighbors.
	p := chainPCN(t, 64)
	mesh := hw.MustMesh(8, 8)
	pl, err := InitialPlacement(p, mesh, curve.Hilbert{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 64; i++ {
		if d := pl.Dist(i-1, i); d != 1 {
			t.Errorf("chain link %d-%d stretched to distance %d", i-1, i, d)
		}
	}
}

func TestInitialPlacementUsesToposort(t *testing.T) {
	// Clusters indexed out of topological order must still be laid in
	// topological sequence along the curve.
	var b snn.GraphBuilder
	b.AddNeurons(3, -1)
	b.AddSynapse(2, 1, 1) // topological order: 0? no — edges 2→1, 1→0.
	b.AddSynapse(1, 0, 1)
	res, err := pcn.Partition(b.Build(), pcn.PartitionConfig{Constraints: hw.Constraints{NeuronsPerCore: 1}})
	if err != nil {
		t.Fatal(err)
	}
	mesh := hw.MustMesh(1, 3)
	pl, err := InitialPlacement(res.PCN, mesh, curve.ZigZag{})
	if err != nil {
		t.Fatal(err)
	}
	order := toposort.Order(res.PCN)
	pts := (curve.ZigZag{}).Points(1, 3)
	for j, c := range order {
		if pl.Of(int(c)) != pts[j] {
			t.Errorf("topological position %d (cluster %d) at %v, want %v", j, c, pl.Of(int(c)), pts[j])
		}
	}
}

func TestInitialPlacementOverflow(t *testing.T) {
	p := chainPCN(t, 10)
	if _, err := InitialPlacement(p, hw.MustMesh(3, 3), curve.Hilbert{}); err == nil {
		t.Error("10 clusters on 9 cores must fail")
	}
}

func TestMapPipeline(t *testing.T) {
	g := snn.FullyConnected(6, 8)
	res, err := pcn.Partition(g, pcn.PartitionConfig{Constraints: hw.Constraints{NeuronsPerCore: 4}})
	if err != nil {
		t.Fatal(err)
	}
	mesh := hw.MustMesh(4, 4)

	// Curve-only pipeline.
	r1, err := Map(res.PCN, mesh, Config{Curve: curve.Hilbert{}})
	if err != nil {
		t.Fatal(err)
	}
	if r1.FD.Swaps != 0 {
		t.Error("FD disabled but swaps reported")
	}
	// Full default pipeline.
	r2, err := Map(res.PCN, mesh, Default())
	if err != nil {
		t.Fatal(err)
	}
	if err := r2.Placement.Validate(); err != nil {
		t.Fatal(err)
	}
	if r2.FD.FinalEnergy > r2.FD.InitialEnergy {
		t.Error("default pipeline worsened energy")
	}
	if r2.Elapsed <= 0 {
		t.Error("elapsed time missing")
	}
	// Nil curve defaults to Hilbert.
	if _, err := Map(res.PCN, mesh, Config{FD: &FDConfig{}}); err != nil {
		t.Fatal(err)
	}
	// Overflow propagates.
	if _, err := Map(res.PCN, hw.MustMesh(1, 2), Default()); err == nil {
		t.Error("overflow must fail")
	}
}

func TestMapPolishPhase(t *testing.T) {
	g := snn.FullyConnected(6, 16)
	res, err := pcn.Partition(g, pcn.PartitionConfig{Constraints: hw.Constraints{NeuronsPerCore: 4}})
	if err != nil {
		t.Fatal(err)
	}
	mesh := hw.MustMesh(5, 5)
	cost := hw.DefaultCostModel()
	r, err := Map(res.PCN, mesh, Config{Curve: curve.Hilbert{}, FD: &FDConfig{Potential: L2Sq{}}})
	if err != nil {
		t.Fatal(err)
	}
	// The polish is a second Finetune on Map's placement with the energy
	// potential, whose E_s is M_ec exactly (Eq. 26); it must not increase it.
	polish, err := Finetune(res.PCN, r.Placement, FDConfig{Potential: EnergyPotential{Cost: cost}})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Placement.Validate(); err != nil {
		t.Fatal(err)
	}
	if polish.FinalEnergy > polish.InitialEnergy {
		t.Errorf("polish worsened M_ec: %g → %g", polish.InitialEnergy, polish.FinalEnergy)
	}
	if polish.Swaps == 0 {
		t.Error("polish made no swap; the input no longer exercises it")
	}
}
