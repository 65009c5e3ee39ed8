package mapping

import (
	"math/rand"
	"slices"
	"testing"

	"snnmap/internal/curve"
	"snnmap/internal/hw"
	"snnmap/internal/pcn"
	"snnmap/internal/toposort"
)

// TestInitialPlacementWorkersBitIdentical is the HSC determinism matrix:
// Workers ∈ {1, 2, 4, 7} × {pristine, defective-cores, spare-rows,
// defective+spare} must produce placements byte-identical to the retained
// sequential curve walk (initialPlacementSeq), for both a monotone
// (identity-order) and a cyclic (heap-order) PCN, on all three curves.
// Run under -race this doubles as the data-race proof for the chunked fill.
func TestInitialPlacementWorkersBitIdentical(t *testing.T) {
	mesh := hw.MustMesh(18, 18)
	deadRng := rand.New(rand.NewSource(7))
	defective := hw.NewDefectMap(mesh)
	for i := 0; i < 20; i++ {
		defective.MarkDead(deadRng.Intn(mesh.Cores()))
	}
	scenarios := []struct {
		name string
		d    *hw.DefectMap
		cons hw.Constraints
	}{
		{name: "pristine"},
		{name: "defective-cores", d: defective},
		{name: "spare-rows", cons: hw.Constraints{SpareRows: 2}},
		{name: "defective+spare", d: defective, cons: hw.Constraints{SpareRows: 1}},
	}
	monotone := chainPCN(t, 280)
	cyclic := randomPCN(t, 41, 280, 1200)
	if !toposort.Monotone(monotone) {
		t.Fatal("chain PCN must be monotone")
	}
	if toposort.Monotone(cyclic) {
		t.Fatal("random PCN unexpectedly monotone; pick another seed")
	}
	pcns := []struct {
		name string
		p    *pcn.PCN
	}{{"monotone", monotone}, {"cyclic", cyclic}}
	for _, c := range []curve.Curve{curve.Hilbert{}, curve.ZigZag{}, curve.Circle{}} {
		for _, tp := range pcns {
			for _, sc := range scenarios {
				usable := sc.cons.UsableRows(mesh)
				oracle, err := initialPlacementSeq(tp.p, mesh, c, sc.d, sc.cons, usable)
				if err != nil {
					t.Fatalf("%s/%s/%s: oracle: %v", c.Name(), tp.name, sc.name, err)
				}
				for _, workers := range []int{1, 2, 4, 7} {
					pl, err := InitialPlacementWorkers(tp.p, mesh, c, sc.d, sc.cons, workers)
					if err != nil {
						t.Fatalf("%s/%s/%s workers=%d: %v", c.Name(), tp.name, sc.name, workers, err)
					}
					if !slices.Equal(pl.PosOf, oracle.PosOf) {
						t.Errorf("%s/%s/%s workers=%d: PosOf differs from sequential oracle", c.Name(), tp.name, sc.name, workers)
					}
					if !slices.Equal(pl.ClusterAt, oracle.ClusterAt) {
						t.Errorf("%s/%s/%s workers=%d: ClusterAt differs from sequential oracle", c.Name(), tp.name, sc.name, workers)
					}
					if err := pl.Validate(); err != nil {
						t.Errorf("%s/%s/%s workers=%d: %v", c.Name(), tp.name, sc.name, workers, err)
					}
					if err := pl.ValidateDefects(sc.d); err != nil {
						t.Errorf("%s/%s/%s workers=%d: %v", c.Name(), tp.name, sc.name, workers, err)
					}
				}
			}
		}
	}
}

// TestInitialPlacementWorkersDegradedFallback pins the capacity-degraded
// path: any worker count must fall back to (and agree with) the sequential
// walk, because degraded-cell skipping depends on cluster order.
func TestInitialPlacementWorkersDegradedFallback(t *testing.T) {
	mesh := hw.MustMesh(10, 10)
	p := chainPCN(t, 60)
	d := hw.NewDefectMap(mesh)
	for _, idx := range []int{3, 17, 40} {
		if err := d.Degrade(idx, 0.4); err != nil {
			t.Fatal(err)
		}
	}
	cons := hw.Constraints{NeuronsPerCore: 1}
	oracle, err := initialPlacementSeq(p, mesh, curve.Hilbert{}, d, cons, cons.UsableRows(mesh))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		pl, err := InitialPlacementWorkers(p, mesh, curve.Hilbert{}, d, cons, workers)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(pl.PosOf, oracle.PosOf) {
			t.Errorf("workers=%d: degraded-mesh placement differs from sequential walk", workers)
		}
	}
}
