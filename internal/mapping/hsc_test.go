package mapping

import (
	"errors"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"snnmap/internal/curve"
	"snnmap/internal/geom"
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

// TestInitialPlacementContract pins the HSC walk to its definition: the
// cluster of topological rank r sits on the r-th usable cell of c.Points,
// where a cell is usable when it lies outside the spare rows, is alive, and
// — if degraded — still fits that cluster. It runs every curve over five
// meshes and over a monotone PCN (identity order, no heap) and a cyclic one.
func TestInitialPlacementContract(t *testing.T) {
	mesh := hw.MustMesh(18, 18)
	rng := rand.New(rand.NewSource(7))
	dead := hw.NewDefectMap(mesh)
	for i := 0; i < 20; i++ {
		dead.MarkDead(rng.Intn(mesh.Cores()))
	}
	degraded := hw.NewDefectMap(mesh)
	for idx := 5; idx < mesh.Cores(); idx += 11 {
		if err := degraded.Degrade(idx, 0.5); err != nil {
			t.Fatal(err)
		}
	}
	monotone := chainPCN(t, 280)
	cyclic := randomPCN(t, 41, 280, 1200)
	if !toposort.Monotone(monotone) {
		t.Fatal("chain PCN must be monotone")
	}
	if toposort.Monotone(cyclic) {
		t.Fatal("random PCN unexpectedly monotone; pick another seed")
	}
	// The synapse cap is the cyclic PCN's largest cluster, so a half-scale
	// core holds some of its clusters and not others.
	maxSyn := 0
	for _, s := range cyclic.Synapses {
		maxSyn = max(maxSyn, int(s))
	}
	meshes := []struct {
		name string
		d    *hw.DefectMap
		cons hw.Constraints
	}{
		{name: "pristine"},
		{name: "dead", d: dead},
		{name: "spare", cons: hw.Constraints{SpareRows: 2}},
		{name: "dead+spare", d: dead, cons: hw.Constraints{SpareRows: 1}},
		{name: "degraded", d: degraded, cons: hw.Constraints{SynapsesPerCore: maxSyn}},
	}
	pcns := []struct {
		name string
		p    *pcn.PCN
	}{{"monotone", monotone}, {"cyclic", cyclic}}
	skipped := 0 // degraded cells left empty before the last placed cluster
	for _, c := range []curve.Curve{curve.Hilbert{}, curve.ZigZag{}, curve.Circle{}} {
		for _, tp := range pcns {
			for _, sc := range meshes {
				name := c.Name() + "/" + tp.name + "/" + sc.name
				pl, err := InitialPlacementDefects(tp.p, mesh, c, sc.d, sc.cons)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if err := pl.Validate(); err != nil {
					t.Errorf("%s: %v", name, err)
				}
				if err := pl.ValidateDefects(sc.d); err != nil {
					t.Errorf("%s: %v", name, err)
				}
				order := toposort.Order(tp.p)
				r := 0
				for _, pt := range c.Points(mesh.Rows, mesh.Cols) {
					if r == len(order) {
						break
					}
					idx := mesh.Index(pt)
					cl := int(order[r])
					if pt.X >= sc.cons.UsableRows(mesh) || sc.d.IsDead(idx) {
						continue
					}
					if scale := sc.d.CapScale(idx); scale < 1 && !sc.cons.Scale(scale).FitsSynapses(int(tp.p.Synapses[cl])) {
						skipped++
						continue
					}
					if got := pl.Of(cl); got != pt {
						t.Fatalf("%s: rank %d (cluster %d) at %v, want %v", name, r, cl, got, pt)
					}
					r++
				}
			}
		}
	}
	if skipped == 0 {
		t.Error("no degraded cell was too small for its cluster; the degraded mesh tests nothing")
	}
}

// TestInitialPlacementWorkersBitIdentical pins the deprecated workers knob
// as inert: Workers ∈ {1, 2, 4, 7} × {pristine, defective-cores, spare-rows,
// defective+spare} must produce placements byte-identical to
// InitialPlacementDefects, for a monotone and a cyclic PCN on all three
// curves.
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
	pcns := []struct {
		name string
		p    *pcn.PCN
	}{{"monotone", chainPCN(t, 280)}, {"cyclic", randomPCN(t, 41, 280, 1200)}}
	for _, c := range []curve.Curve{curve.Hilbert{}, curve.ZigZag{}, curve.Circle{}} {
		for _, tp := range pcns {
			for _, sc := range scenarios {
				want, err := InitialPlacementDefects(tp.p, mesh, c, sc.d, sc.cons)
				if err != nil {
					t.Fatalf("%s/%s/%s: %v", c.Name(), tp.name, sc.name, err)
				}
				for _, workers := range []int{1, 2, 4, 7} {
					pl, err := InitialPlacementWorkers(tp.p, mesh, c, sc.d, sc.cons, workers)
					if err != nil {
						t.Fatalf("%s/%s/%s workers=%d: %v", c.Name(), tp.name, sc.name, workers, err)
					}
					if !slices.Equal(pl.PosOf, want.PosOf) || !slices.Equal(pl.ClusterAt, want.ClusterAt) {
						t.Errorf("%s/%s/%s workers=%d: placement differs from the curve walk", c.Name(), tp.name, sc.name, workers)
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
// mesh: any worker count agrees with the curve walk, which leaves a degraded
// cell empty when the next cluster does not fit it.
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
	want, err := InitialPlacementDefects(p, mesh, curve.Hilbert{}, d, cons)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		pl, err := InitialPlacementWorkers(p, mesh, curve.Hilbert{}, d, cons, workers)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(pl.PosOf, want.PosOf) {
			t.Errorf("workers=%d: degraded-mesh placement differs from the curve walk", workers)
		}
	}
}

// brokenCurve is a Hilbert curve passed through edit, standing in for a
// user-supplied curve whose visit order is not a permutation of the mesh.
type brokenCurve struct {
	edit func(pts []geom.Point) []geom.Point
}

func (brokenCurve) Name() string { return "broken" }

func (c brokenCurve) Points(n, m int) []geom.Point { return c.edit(curve.Hilbert{}.Points(n, m)) }

// TestInitialPlacementRejectsBadCurve holds a custom curve to the Curve
// contract: a repeated cell, an off-mesh cell or a short visit order is an
// ErrBadConfig naming the curve, both from InitialPlacement and from a
// curve-only Map, never a placement that fails Validate later.
func TestInitialPlacementRejectsBadCurve(t *testing.T) {
	p := chainPCN(t, 16)
	mesh := hw.MustMesh(4, 4)
	for _, tc := range []struct {
		name string
		c    curve.Curve
		want string
	}{
		{"repeat", brokenCurve{func(pts []geom.Point) []geom.Point { pts[1] = pts[0]; return pts }}, "revisits"},
		{"off-mesh", brokenCurve{func(pts []geom.Point) []geom.Point { pts[3] = geom.Point{X: 0, Y: 4}; return pts }}, "outside"},
		{"short", brokenCurve{func(pts []geom.Point) []geom.Point { return pts[:len(pts)-1] }}, "visits 15 cells"},
	} {
		_, err := InitialPlacement(p, mesh, tc.c)
		_, mapErr := Map(p, mesh, Config{Curve: tc.c})
		for _, err := range []error{err, mapErr} {
			if !errors.Is(err, ErrBadConfig) || !strings.Contains(err.Error(), `"broken"`) || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s: got %v, want ErrBadConfig naming the curve and %q", tc.name, err, tc.want)
			}
		}
	}
}

func TestInitialPlacementRejectsInvalidMesh(t *testing.T) {
	for _, p := range []*pcn.PCN{{}, chainPCN(t, 4)} {
		for _, mesh := range []hw.Mesh{{}, {Rows: 0, Cols: 4}, {Rows: -2, Cols: -2}} {
			if _, err := InitialPlacement(p, mesh, curve.Hilbert{}); !errors.Is(err, ErrBadConfig) {
				t.Errorf("%d clusters on %v mesh: got %v, want ErrBadConfig", p.NumClusters, mesh, err)
			}
		}
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
