package baseline

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"snnmap/internal/geom"
	"snnmap/internal/hw"
	"snnmap/internal/mapping"
	"snnmap/internal/pcn"
	"snnmap/internal/place"
	"snnmap/internal/snn"
)

func layeredPCN(t *testing.T, layers, width, perCluster int) *pcn.PCN {
	t.Helper()
	g := snn.FullyConnected(layers, width)
	res, err := pcn.Partition(g, pcn.PartitionConfig{
		Constraints:   hw.Constraints{NeuronsPerCore: perCluster},
		SplitAtLayers: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res.PCN
}

func randomPCN(t *testing.T, seed int64, n, e int) *pcn.PCN {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var b snn.GraphBuilder
	b.AddNeurons(n, -1)
	for i := 0; i < e; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			b.AddSynapse(u, v, float64(rng.Intn(5)+1))
		}
	}
	res, err := pcn.Partition(b.Build(), pcn.PartitionConfig{Constraints: hw.Constraints{NeuronsPerCore: 1}})
	if err != nil {
		t.Fatal(err)
	}
	return res.PCN
}

// randomPlacement is a uniformly random start for the searches' tests.
func randomPlacement(t *testing.T, p *pcn.PCN, mesh hw.Mesh, seed int64) *place.Placement {
	t.Helper()
	pl, err := place.Random(p.NumClusters, mesh, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return pl
}

func TestPlacementEnergyMatchesDefinition(t *testing.T) {
	p := randomPCN(t, 5, 10, 40)
	mesh := hw.MustMesh(4, 4)
	pl := randomPlacement(t, p, mesh, 1)
	cost := hw.DefaultCostModel()
	var want float64
	for c := 0; c < p.NumClusters; c++ {
		tos, ws := p.OutEdges(c)
		for k, to := range tos {
			d := geom.Manhattan(pl.Of(c), pl.Of(int(to)))
			want += ws[k] * (float64(d+1)*cost.RouterEnergy + float64(d)*cost.WireEnergy)
		}
	}
	if got := mapping.InterconnectEnergy(p, pl, cost); math.Abs(got-want) > 1e-9 {
		t.Errorf("energy %g, want %g", got, want)
	}
}

// swapEnergyDeltaOracle is DFSynthesizer's own swap delta from before the
// field repairs and the search shared mapping.MoveEnergyDelta: both swapped
// clusters' Symmetric neighbours, skipping their mutual edge, whose length
// a swap keeps. It pins the kernel's two-move call bit for bit.
func swapEnergyDeltaOracle(p *pcn.PCN, pl *place.Placement, cost hw.CostModel, a, b int32) float64 {
	sym := p.Symmetric()
	var buf pcn.MergeBuf
	ca, cb := pl.ClusterAt[a], pl.ClusterAt[b]
	pa, pb := pl.Mesh.Coord(int(a)), pl.Mesh.Coord(int(b))
	var delta float64
	walk := func(tos []int32, ws []float64, other int32, from, to geom.Point) {
		m := pcn.WeightMask(tos, ws)
		for k, t := range tos {
			if t == other {
				continue
			}
			pk := pl.Of(int(t))
			delta += ws[k&m] * (cost.SpikeEnergy(geom.Manhattan(to, pk)) -
				cost.SpikeEnergy(geom.Manhattan(from, pk)))
		}
	}
	moveCost := func(c, other int32, from, to geom.Point) {
		to1, w1, to2, w2 := sym.Neighbors(int(c), &buf)
		walk(to1, w1, other, from, to)
		walk(to2, w2, other, from, to)
	}
	if ca != place.None {
		moveCost(ca, cb, pa, pb)
	}
	if cb != place.None {
		moveCost(cb, ca, pb, pa)
	}
	return delta
}

// TestSwapEnergyDeltaBits holds the kernel's two-move call to the oracle
// bit for bit, with either core possibly empty: DFSynthesizer's accept
// decisions, and so its placements, depend on every bit.
func TestSwapEnergyDeltaBits(t *testing.T) {
	f := func(seed int64, ai, bi uint8) bool {
		p := randomPCN(t, seed, 12, 60)
		mesh := hw.MustMesh(4, 4)
		pl := randomPlacement(t, p, mesh, seed)
		cost := hw.DefaultCostModel()
		a, b := int32(int(ai)%mesh.Cores()), int32(int(bi)%mesh.Cores())
		return a == b || math.Float64bits(swapEnergyDelta(p, pl, cost, a, b)) == math.Float64bits(swapEnergyDeltaOracle(p, pl, cost, a, b))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSwapEnergyDeltaMatchesBruteForce(t *testing.T) {
	f := func(seed int64, ai, bi uint8) bool {
		p := randomPCN(t, seed, 12, 60)
		mesh := hw.MustMesh(4, 4)
		pl := randomPlacement(t, p, mesh, seed)
		cost := hw.DefaultCostModel()
		a := int32(int(ai) % mesh.Cores())
		b := int32(int(bi) % mesh.Cores())
		if a == b {
			return true
		}
		before := mapping.InterconnectEnergy(p, pl, cost)
		delta := swapEnergyDelta(p, pl, cost, a, b)
		pl.SwapCores(a, b)
		after := mapping.InterconnectEnergy(p, pl, cost)
		return math.Abs((after-before)-delta) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestTrueNorthPlacesLayerByLayer(t *testing.T) {
	p := layeredPCN(t, 4, 6, 2) // 4 layers × 3 clusters
	mesh := hw.MustMesh(4, 4)
	pl, stats, err := TrueNorth(p, mesh, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := pl.Validate(); err != nil {
		t.Fatal(err)
	}
	if stats.EarlyStopped {
		t.Error("tiny workload must not early-stop")
	}
	// Input layer clusters at predefined (row-major) positions.
	for c := 0; c < 3; c++ {
		if pl.PosOf[c] != int32(c) {
			t.Errorf("input cluster %d at %d, want %d", c, pl.PosOf[c], c)
		}
	}
}

func TestTrueNorthBeatsRandomOnLayeredNets(t *testing.T) {
	p := layeredPCN(t, 6, 8, 2)
	side := 1
	for side*side < p.NumClusters {
		side++
	}
	mesh := hw.MustMesh(side, side)
	cost := hw.DefaultCostModel()
	tn, _, err := TrueNorth(p, mesh, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rd := randomPlacement(t, p, mesh, 7)
	if mapping.InterconnectEnergy(p, tn, cost) >= mapping.InterconnectEnergy(p, rd, cost) {
		t.Error("TrueNorth should beat random placement on a layered net")
	}
}

func TestTrueNorthBudgetEarlyStop(t *testing.T) {
	p := layeredPCN(t, 10, 64, 1) // 640 clusters
	mesh := hw.MustMesh(26, 26)
	pl, stats, err := TrueNorth(p, mesh, Options{Budget: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	if !stats.EarlyStopped {
		t.Error("nanosecond budget must early-stop")
	}
	if err := pl.Validate(); err != nil {
		t.Error("early-stopped placement must still be complete:", err)
	}
}

func TestFillAxisCostMatchesBruteForce(t *testing.T) {
	f := func(seed int64, size uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(size%20) + 2
		pts := make([]weightedCoord, rng.Intn(8)+1)
		for i := range pts {
			pts[i] = weightedCoord{v: rng.Intn(n), w: float64(rng.Intn(9) + 1)}
		}
		cost := make([]float64, n)
		fillAxisCost(cost, append([]weightedCoord(nil), pts...))
		for i := 0; i < n; i++ {
			var want float64
			for _, p := range pts {
				want += p.w * math.Abs(float64(i-p.v))
			}
			if math.Abs(cost[i]-want) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestDFSynthesizerImprovesEnergy(t *testing.T) {
	p := randomPCN(t, 9, 30, 300)
	mesh := hw.MustMesh(6, 6)
	cost := hw.DefaultCostModel()
	rd := randomPlacement(t, p, mesh, 11)
	df, stats, err := DFSynthesizer(p, mesh, Options{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if err := df.Validate(); err != nil {
		t.Fatal(err)
	}
	if stats.Moves == 0 {
		t.Error("expected at least one accepted swap")
	}
	if mapping.InterconnectEnergy(p, df, cost) >= mapping.InterconnectEnergy(p, rd, cost) {
		t.Error("DFSynthesizer must improve on its random start")
	}
}

// TestDFSynthesizerPinnedPlacements pins DFSynthesizer's seed-3 placements
// on four Table 3 nets (FNV-64a over the cores in cluster order) and its
// accepted moves: a change of any accept decision moves them.
func TestDFSynthesizerPinnedPlacements(t *testing.T) {
	for _, tc := range []struct {
		net   func() *snn.Net
		hash  uint64
		moves int64
	}{
		{snn.LeNetMNIST, 0xff89a592127ae1c1, 7},
		{snn.AlexNet, 0xc81dd011eedc666d, 1090},
		{snn.MobileNet, 0xa8dec043d52a4f5e, 4353},
		{snn.ResNet, 0xd39b58472a48fe4c, 15296},
	} {
		net := tc.net()
		p, err := pcn.Expand(net, pcn.DefaultPartition())
		if err != nil {
			t.Fatal(err)
		}
		pl, st, err := DFSynthesizer(p, hw.MeshFor(p.NumClusters), Options{Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		for _, pos := range pl.PosOf {
			fmt.Fprint(h, pos, ",")
		}
		if h.Sum64() != tc.hash || st.Moves != tc.moves {
			t.Errorf("%s: placement hash %x after %d moves, want %x after %d", net.Name, h.Sum64(), st.Moves, tc.hash, tc.moves)
		}
	}
}

func TestDFSynthesizerBudget(t *testing.T) {
	p := randomPCN(t, 2, 50, 500)
	mesh := hw.MustMesh(8, 8)
	_, stats, err := DFSynthesizer(p, mesh, Options{Seed: 1, Budget: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	if !stats.EarlyStopped {
		t.Error("nanosecond budget must early-stop")
	}
}

func TestPSOImprovesOverWorstParticle(t *testing.T) {
	p := randomPCN(t, 21, 16, 120)
	mesh := hw.MustMesh(4, 4)
	cost := hw.DefaultCostModel()
	pso, stats, err := PSO(p, mesh, Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := pso.Validate(); err != nil {
		t.Fatal(err)
	}
	if stats.Evaluations == 0 {
		t.Error("no fitness evaluations recorded")
	}
	// gbest must beat the average random placement.
	var rdSum float64
	for s := int64(0); s < 5; s++ {
		rd := randomPlacement(t, p, mesh, 100+s)
		rdSum += mapping.InterconnectEnergy(p, rd, cost)
	}
	if mapping.InterconnectEnergy(p, pso, cost) >= rdSum/5 {
		t.Error("PSO should beat the average random placement")
	}
}

func TestPSOBudgetAndDeterminism(t *testing.T) {
	p := randomPCN(t, 33, 25, 200)
	mesh := hw.MustMesh(5, 5)
	_, stats, err := PSO(p, mesh, Options{Seed: 2, Budget: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	if !stats.EarlyStopped {
		t.Error("nanosecond budget must early-stop")
	}
	a, _, err := PSO(p, mesh, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := PSO(p, mesh, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.PosOf {
		if a.PosOf[i] != b.PosOf[i] {
			t.Fatal("same seed must give the same PSO result")
		}
	}
}
