package mapping

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"time"

	"snnmap/internal/curve"
	"snnmap/internal/geom"
	"snnmap/internal/hw"
	"snnmap/internal/pcn"
	"snnmap/internal/place"
	"snnmap/internal/snn"
)

// randomPCN builds a random cluster graph with n clusters and ~e directed
// edges.
func randomPCN(t testing.TB, seed int64, n, e int) *pcn.PCN {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var b snn.GraphBuilder
	b.AddNeurons(n, -1)
	for i := 0; i < e; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			b.AddSynapse(u, v, float64(rng.Intn(9)+1))
		}
	}
	res, err := pcn.Partition(b.Build(), pcn.PartitionConfig{Constraints: hw.Constraints{NeuronsPerCore: 1}})
	if err != nil {
		t.Fatal(err)
	}
	return res.PCN
}

// bruteEnergy computes E_s by direct summation over the directed edges: every
// potential is symmetric (u(p) = u(−p)), so an edge's term is its share of
// the undirected pair's.
func bruteEnergy(p *pcn.PCN, pl *place.Placement, pot Potential) float64 {
	var total float64
	for c := 0; c < p.NumClusters; c++ {
		tos, ws := p.OutEdges(c)
		for k, to := range tos {
			a, b := pl.Of(int(to)), pl.Of(c)
			total += ws[k] * pot.Eval(geom.Point{X: a.X - b.X, Y: a.Y - b.Y})
		}
	}
	return total
}

func TestFinetuneMonotoneEnergyDescent(t *testing.T) {
	for _, potName := range []string{"l1", "l1sq", "l2sq", "energy"} {
		pot, err := PotentialByName(potName, hw.DefaultCostModel())
		if err != nil {
			t.Fatal(err)
		}
		p := randomPCN(t, 11, 40, 200)
		mesh := hw.MustMesh(7, 7)
		pl, err := place.Random(p.NumClusters, mesh, rand.New(rand.NewSource(5)))
		if err != nil {
			t.Fatal(err)
		}
		before := bruteEnergy(p, pl, pot)
		stats, err := Finetune(p, pl, FDConfig{Potential: pot})
		if err != nil {
			t.Fatal(err)
		}
		after := bruteEnergy(p, pl, pot)
		if math.Abs(stats.InitialEnergy-before) > 1e-6*math.Abs(before) {
			t.Errorf("%s: reported initial energy %g, brute force %g", potName, stats.InitialEnergy, before)
		}
		if math.Abs(stats.FinalEnergy-after) > 1e-6*math.Abs(after) {
			t.Errorf("%s: reported final energy %g, brute force %g", potName, stats.FinalEnergy, after)
		}
		if after > before {
			t.Errorf("%s: energy increased %g → %g", potName, before, after)
		}
		if !stats.Converged {
			t.Errorf("%s: did not converge", potName)
		}
		if err := pl.Validate(); err != nil {
			t.Errorf("%s: placement corrupted: %v", potName, err)
		}
	}
}

// TestFinetuneConvergedMeansNoPositiveSwap is the core Algorithm 3
// postcondition: once the queue drains, no adjacent swap (including moves
// into empty cells) can further reduce E_s.
func TestFinetuneConvergedMeansNoPositiveSwap(t *testing.T) {
	p := randomPCN(t, 23, 30, 150)
	mesh := hw.MustMesh(6, 6)
	pl, err := place.Random(p.NumClusters, mesh, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	pot := L2Sq{}
	stats, err := Finetune(p, pl, FDConfig{Potential: pot})
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Converged {
		t.Fatal("expected convergence")
	}
	base := bruteEnergy(p, pl, pot)
	// Try every adjacent swap by brute force.
	for idx := 0; idx < mesh.Cores(); idx++ {
		pt := mesh.Coord(idx)
		for _, q := range []geom.Point{{X: pt.X, Y: pt.Y + 1}, {X: pt.X + 1, Y: pt.Y}} {
			if !mesh.Contains(q) {
				continue
			}
			trial := pl.Clone()
			trial.SwapCores(int32(idx), int32(mesh.Index(q)))
			if e := bruteEnergy(p, trial, pot); e < base-1e-6 {
				t.Fatalf("converged placement improvable: swap %v↔%v drops E_s %g → %g", pt, q, base, e)
			}
		}
	}
}

// TestForceConsistencyAfterSwaps checks the incremental force maintenance
// (Alg. 3 line 24): after a run, every occupied cell's force array must
// equal a from-scratch rebuild.
func TestForceConsistencyAfterSwaps(t *testing.T) {
	p := randomPCN(t, 31, 25, 120)
	mesh := hw.MustMesh(6, 6)
	pl, err := place.Random(p.NumClusters, mesh, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	cfg := FDConfig{Potential: L1Sq{}, MaxIterations: 3}.withDefaults()
	e := newFDEngine(p, pl, cfg)
	e.buildAllForces(1)
	queue := e.initialQueue(1)
	// Run a few iterations manually.
	for iter := 0; iter < 3 && len(queue) > 0; iter++ {
		e.beginEpoch()
		limit := int(math.Ceil(0.3 * float64(len(queue))))
		for i := 0; i < limit; i++ {
			if e.tension(queue[i].id) > 1e-9 {
				e.swapPair(queue[i].id)
			}
		}
		var checks int64
		queue = e.nextQueue(queue, 1e-9, &checks)
	}
	// Compare maintained forces against a fresh engine.
	fresh := newFDEngine(p, pl, cfg)
	fresh.buildAllForces(1)
	for idx := int32(0); idx < int32(mesh.Cores()); idx++ {
		if pl.ClusterAt[idx] == place.None {
			continue
		}
		for d := 0; d < 4; d++ {
			got := e.force[int(idx)*4+d]
			want := fresh.force[int(idx)*4+d]
			if math.Abs(got-want) > 1e-6*(1+math.Abs(want)) {
				t.Fatalf("cell %d dir %d: maintained force %g, rebuilt %g", idx, d, got, want)
			}
		}
	}
}

// TestTensionEqualsSwapDelta verifies that tension is the exact E_s
// reduction of the swap, including for mutually connected adjacent clusters
// (where the naive Eq. 30 sum double-counts the mutual edge).
func TestTensionEqualsSwapDelta(t *testing.T) {
	p := randomPCN(t, 47, 20, 120)
	mesh := hw.MustMesh(5, 5)
	pl, err := place.Random(p.NumClusters, mesh, rand.New(rand.NewSource(8)))
	if err != nil {
		t.Fatal(err)
	}
	for _, pot := range []Potential{L1{}, L2Sq{}, EnergyPotential{Cost: hw.DefaultCostModel()}} {
		cfg := FDConfig{Potential: pot}.withDefaults()
		e := newFDEngine(p, pl, cfg)
		e.buildAllForces(1)
		base := bruteEnergy(p, pl, pot)
		for idx := 0; idx < mesh.Cores(); idx++ {
			var scratch [4]int32
			for _, id := range e.pairsTouching(e.cell(int32(idx)), scratch[:0]) {
				if id/2 != int32(idx) {
					continue
				}
				a, bb, _ := e.pairCells(id)
				trial := pl.Clone()
				trial.SwapCores(a, bb)
				want := base - bruteEnergy(p, trial, pot)
				got := e.tension(id)
				if math.Abs(got-want) > 1e-6*(1+math.Abs(want)) {
					t.Fatalf("%s: pair %d tension %g, brute-force ΔE %g", pot.Name(), id, got, want)
				}
			}
		}
	}
}

// TestBlockedMatchesMeshRows holds blocked to its definition, with rows
// taken from Mesh.Coord: a pair is blocked when its second cell lies in a
// reserved spare row or either cell is dead.
func TestBlockedMatchesMeshRows(t *testing.T) {
	p := randomPCN(t, 5, 20, 80)
	mesh := hw.MustMesh(7, 6)
	defects := hw.NewDefectMap(mesh)
	defects.MarkDead(9)
	for _, cfg := range []FDConfig{
		{Constraints: hw.Constraints{SpareRows: 2}},
		{Constraints: hw.Constraints{SpareRows: 1}, Defects: defects},
		{Defects: defects},
	} {
		pl, err := place.Sequential(p.NumClusters, mesh)
		if err != nil {
			t.Fatal(err)
		}
		e := newFDEngine(p, pl, cfg.withDefaults())
		usable := cfg.Constraints.UsableRows(mesh)
		for _, id := range inMeshPairs(e) {
			a, b, _ := e.pairCells(id)
			want := mesh.Coord(int(b)).X >= usable ||
				cfg.Defects != nil && (cfg.Defects.IsDead(int(a)) || cfg.Defects.IsDead(int(b)))
			if got := e.blocked(id); got != want {
				t.Fatalf("spare rows %d: blocked(%d) = %v, want %v", cfg.Constraints.SpareRows, id, got, want)
			}
		}
	}
}

func TestFinetuneImprovesHSC(t *testing.T) {
	g := snn.FullyConnected(8, 32)
	res, err := pcn.Partition(g, pcn.PartitionConfig{Constraints: hw.Constraints{NeuronsPerCore: 8}})
	if err != nil {
		t.Fatal(err)
	}
	mesh := hw.MustMesh(6, 6)
	pl, err := InitialPlacement(res.PCN, mesh, curve.Hilbert{})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := Finetune(res.PCN, pl, FDConfig{Potential: L2Sq{}})
	if err != nil {
		t.Fatal(err)
	}
	if stats.FinalEnergy > stats.InitialEnergy {
		t.Errorf("FD worsened the HSC placement: %g → %g", stats.InitialEnergy, stats.FinalEnergy)
	}
}

func TestFinetuneBudget(t *testing.T) {
	p := randomPCN(t, 3, 100, 2000)
	mesh := hw.MustMesh(10, 10)
	pl, err := place.Random(p.NumClusters, mesh, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	stats, err := Finetune(p, pl, FDConfig{Potential: L2Sq{}, Budget: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Converged && stats.Iterations > 1 {
		t.Error("nanosecond budget should stop after at most one iteration")
	}
	if err := pl.Validate(); err != nil {
		t.Errorf("early-stopped placement must stay valid: %v", err)
	}
}

func TestFinetuneMaxIterations(t *testing.T) {
	p := randomPCN(t, 3, 80, 1000)
	mesh := hw.MustMesh(9, 9)
	pl, _ := place.Random(p.NumClusters, mesh, rand.New(rand.NewSource(1)))
	stats, err := Finetune(p, pl, FDConfig{Potential: L2Sq{}, MaxIterations: 2})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Iterations > 2 {
		t.Errorf("iterations = %d, cap 2", stats.Iterations)
	}
}

func TestFinetuneDeterminism(t *testing.T) {
	run := func() []int32 {
		p := randomPCN(t, 77, 36, 300)
		mesh := hw.MustMesh(6, 6)
		pl, _ := place.Random(p.NumClusters, mesh, rand.New(rand.NewSource(4)))
		if _, err := Finetune(p, pl, FDConfig{Potential: L2Sq{}}); err != nil {
			t.Fatal(err)
		}
		return pl.PosOf
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("Finetune must be deterministic")
		}
	}
}

func TestFinetunePlacementMismatch(t *testing.T) {
	p := randomPCN(t, 1, 10, 20)
	pl, _ := place.Sequential(5, hw.MustMesh(3, 3))
	if _, err := Finetune(p, pl, FDConfig{}); err == nil {
		t.Error("cluster-count mismatch must fail")
	}
}

// badPlacements are hand-built corruptions of a valid placement of 10
// clusters on a 4×4 mesh: all but the last index-panic an engine that
// trusts them.
var badPlacements = []struct {
	name    string
	corrupt func(pl *place.Placement)
}{
	{"PosOf length", func(pl *place.Placement) { pl.PosOf = pl.PosOf[:5] }},
	{"PosOf out of range", func(pl *place.Placement) { pl.PosOf[3] = int32(pl.Mesh.Cores()) }},
	{"ClusterAt disagrees with PosOf", func(pl *place.Placement) { pl.ClusterAt[pl.PosOf[3]] = 4 }},
	{"two clusters on one cell", func(pl *place.Placement) { pl.PosOf[3] = pl.PosOf[4] }},
	{"ClusterAt length", func(pl *place.Placement) { pl.ClusterAt = pl.ClusterAt[:pl.Mesh.Cores()-1] }},
	{"valid, one cluster short", func(pl *place.Placement) {
		short, _ := place.Sequential(len(pl.PosOf)-1, pl.Mesh)
		*pl = *short
	}},
}

// TestFinetuneBadPlacement: a hand-built placement that is not a bijection
// onto its mesh is reported as ErrBadConfig, not an index panic in the engine.
func TestFinetuneBadPlacement(t *testing.T) {
	p := randomPCN(t, 1, 10, 20)
	for _, tc := range badPlacements {
		pl, err := place.Sequential(p.NumClusters, hw.MustMesh(4, 4))
		if err != nil {
			t.Fatal(err)
		}
		tc.corrupt(pl)
		if _, err := Finetune(p, pl, FDConfig{}); !errors.Is(err, ErrBadConfig) {
			t.Errorf("%s: got %v, want ErrBadConfig", tc.name, err)
		}
	}
}

// TestRemapBadPlacement: Remap and RemapRows report the same corruptions as
// ErrBadConfig — with and without a defect map, since both walk the
// placement for M_ec either way.
func TestRemapBadPlacement(t *testing.T) {
	p := randomPCN(t, 1, 10, 20)
	mesh := hw.MustMesh(4, 4)
	dead := hw.NewDefectMap(mesh)
	dead.MarkDead(3)
	cost := hw.DefaultCostModel()
	for _, tc := range badPlacements {
		for _, d := range []*hw.DefectMap{nil, dead} {
			for name, remap := range map[string]func(*place.Placement) error{
				"Remap":     func(pl *place.Placement) error { _, err := Remap(p, pl, d, hw.Constraints{}, cost); return err },
				"RemapRows": func(pl *place.Placement) error { _, err := RemapRows(p, pl, d, hw.Constraints{}, cost); return err },
			} {
				pl, err := place.Sequential(p.NumClusters, mesh)
				if err != nil {
					t.Fatal(err)
				}
				tc.corrupt(pl)
				if err := remap(pl); !errors.Is(err, ErrBadConfig) {
					t.Errorf("%s, %s, defects=%v: got %v, want ErrBadConfig", name, tc.name, d != nil, err)
				}
			}
		}
	}
}

func TestFinetuneWithEmptyCells(t *testing.T) {
	// More cores than clusters: FD must exploit moves into free space.
	p := randomPCN(t, 13, 10, 60)
	mesh := hw.MustMesh(5, 5)
	pl, err := place.Random(p.NumClusters, mesh, rand.New(rand.NewSource(6)))
	if err != nil {
		t.Fatal(err)
	}
	stats, err := Finetune(p, pl, FDConfig{Potential: L2Sq{}})
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Converged {
		t.Error("expected convergence")
	}
	if err := pl.Validate(); err != nil {
		t.Fatal(err)
	}
}
