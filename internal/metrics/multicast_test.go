package metrics

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"snnmap/internal/curve"
	"snnmap/internal/geom"
	"snnmap/internal/hw"
	"snnmap/internal/mapping"
	"snnmap/internal/pcn"
	"snnmap/internal/place"
	"snnmap/internal/snn"
)

func multiPCN(t *testing.T, edges [][3]float64, n int) *pcn.PCN {
	t.Helper()
	var b snn.GraphBuilder
	b.AddNeurons(n, -1)
	for _, e := range edges {
		b.AddSynapse(int(e[0]), int(e[1]), e[2])
	}
	res, err := pcn.Partition(b.Build(), pcn.PartitionConfig{Constraints: hw.Constraints{NeuronsPerCore: 1}})
	if err != nil {
		t.Fatal(err)
	}
	return res.PCN
}

func TestMulticastEqualsUnicastSingleTarget(t *testing.T) {
	p := multiPCN(t, [][3]float64{{0, 1, 7}}, 2)
	mesh := hw.MustMesh(4, 4)
	pl := placeAt(t, p, mesh, geom.Point{X: 1, Y: 0}, geom.Point{X: 3, Y: 3})
	cost := hw.DefaultCostModel()
	s := MulticastEnergy(p, pl, cost)
	if math.Abs(s.Energy-s.UnicastEnergy) > 1e-9 {
		t.Errorf("single-target multicast %g != unicast %g", s.Energy, s.UnicastEnergy)
	}
	if want := 7 * cost.SpikeEnergy(5); math.Abs(s.UnicastEnergy-want) > 1e-9 {
		t.Errorf("unicast = %g, want %g", s.UnicastEnergy, want)
	}
}

func TestMulticastSharedTrunkHandChecked(t *testing.T) {
	// Source at (0,0); targets on the same row at columns 2 (w=3) and 5
	// (w=5). The shared trunk carries max(3,5)=5 on every link.
	p := multiPCN(t, [][3]float64{{0, 1, 3}, {0, 2, 5}}, 3)
	mesh := hw.MustMesh(1, 6)
	pl := placeAt(t, p, mesh, geom.Point{X: 0, Y: 0}, geom.Point{X: 0, Y: 2}, geom.Point{X: 0, Y: 5})
	cost := hw.CostModel{RouterEnergy: 1, WireEnergy: 1}
	s := MulticastEnergy(p, pl, cost)
	// Links: 5 links × load 5 = 25. Routers: source(5) + 4 intermediate(5)
	// + branch@2(5) + branch@5 is among them... routers on path: columns
	// 0..5 = 6 routers × 5 = 30.
	if math.Abs(s.LinkTraversals-25) > 1e-9 {
		t.Errorf("links = %g, want 25", s.LinkTraversals)
	}
	if math.Abs(s.RouterTraversals-30) > 1e-9 {
		t.Errorf("routers = %g, want 30", s.RouterTraversals)
	}
	// Unicast: (3·(2+3)) + (5·(5+6)) links+routers = 3·2+5·5 links=31,
	// routers 3·3+5·6=39.
	if want := 31.0 + 39.0; math.Abs(s.UnicastEnergy-want) > 1e-9 {
		t.Errorf("unicast = %g, want %g", s.UnicastEnergy, want)
	}
	if s.Saving() <= 0 {
		t.Errorf("expected positive saving, got %g", s.Saving())
	}
}

func TestMulticastDiagonalBranch(t *testing.T) {
	// One target off-row: tree = trunk + vertical chain; totals match the
	// unicast L-path for a single target.
	p := multiPCN(t, [][3]float64{{0, 1, 2}}, 2)
	mesh := hw.MustMesh(4, 4)
	pl := placeAt(t, p, mesh, geom.Point{X: 0, Y: 0}, geom.Point{X: 2, Y: 3})
	cost := hw.CostModel{RouterEnergy: 1, WireEnergy: 1}
	s := MulticastEnergy(p, pl, cost)
	if math.Abs(s.LinkTraversals-2*5) > 1e-9 {
		t.Errorf("links = %g, want 10", s.LinkTraversals)
	}
	if math.Abs(s.RouterTraversals-2*6) > 1e-9 {
		t.Errorf("routers = %g, want 12", s.RouterTraversals)
	}
}

func TestMulticastNeverExceedsUnicast(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(20) + 2
		var edges [][3]float64
		for e := 0; e < rng.Intn(60); e++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				edges = append(edges, [3]float64{float64(u), float64(v), float64(rng.Intn(9) + 1)})
			}
		}
		var b snn.GraphBuilder
		b.AddNeurons(n, -1)
		for _, e := range edges {
			b.AddSynapse(int(e[0]), int(e[1]), e[2])
		}
		res, err := pcn.Partition(b.Build(), pcn.PartitionConfig{Constraints: hw.Constraints{NeuronsPerCore: 1}})
		if err != nil {
			return false
		}
		side := 1
		for side*side < n {
			side++
		}
		mesh := hw.MustMesh(side, side)
		pl, err := place.Random(n, mesh, rng)
		if err != nil {
			return false
		}
		s := MulticastEnergy(res.PCN, pl, hw.DefaultCostModel())
		return s.Energy <= s.UnicastEnergy+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestMulticastUnicastMatchesEvaluate(t *testing.T) {
	g := snn.FullyConnected(3, 8)
	res, err := pcn.Partition(g, pcn.PartitionConfig{Constraints: hw.Constraints{NeuronsPerCore: 4}})
	if err != nil {
		t.Fatal(err)
	}
	mesh := hw.MustMesh(3, 3)
	pl, err := place.Sequential(res.PCN.NumClusters, mesh)
	if err != nil {
		t.Fatal(err)
	}
	cost := hw.DefaultCostModel()
	mc := MulticastEnergy(res.PCN, pl, cost)
	ev := Evaluate(res.PCN, pl, cost, Options{Congestion: CongestionSkip})
	if math.Abs(mc.UnicastEnergy-ev.Energy) > 1e-9 {
		t.Errorf("multicast's unicast reference %g != Evaluate %g", mc.UnicastEnergy, ev.Energy)
	}
}

func TestMulticastSavingZeroOnEmpty(t *testing.T) {
	p := &pcn.PCN{NumClusters: 1, Neurons: []int32{1}, Synapses: []int64{0}, Layer: []int32{-1}, OutOff: []int64{0, 0}}
	mesh := hw.MustMesh(1, 1)
	pl, err := place.Sequential(1, mesh)
	if err != nil {
		t.Fatal(err)
	}
	s := MulticastEnergy(p, pl, hw.DefaultCostModel())
	if s.Energy != 0 || s.Saving() != 0 {
		t.Errorf("empty PCN: %+v", s)
	}
}

// TestMulticastBits pins math.Float64bits of every MulticastSummary float on
// ResNet's HSC placement, on a seeded random graph with non-dyadic weights
// and a random placement, and folded over 100 small such graphs. The trunk
// and each branch are walked in a fixed order (source router, trunk right,
// trunk left, then the columns in ascending order, each below the source row
// before above it). A sum shows a change of that order only where it
// changes binade between the reordered additions, which a large sum seldom
// does; each small graph's sums start from zero and do so often.
func TestMulticastBits(t *testing.T) {
	bits := func(s MulticastSummary) [4]uint64 {
		return [4]uint64{math.Float64bits(s.Energy), math.Float64bits(s.UnicastEnergy),
			math.Float64bits(s.LinkTraversals), math.Float64bits(s.RouterTraversals)}
	}
	cost := hw.DefaultCostModel()
	resnet := func() [4]uint64 {
		p, err := pcn.Expand(snn.ResNet(), pcn.DefaultPartition())
		if err != nil {
			t.Fatal(err)
		}
		pl, err := mapping.InitialPlacement(p, hw.MeshFor(p.NumClusters), curve.Hilbert{})
		if err != nil {
			t.Fatal(err)
		}
		return bits(MulticastEnergy(p, pl, cost))
	}
	random := func() [4]uint64 {
		p, pl := randomMetricsWorkload(t, 11, 300, 3000, 18)
		return bits(MulticastEnergy(p, pl, cost))
	}
	small := func() [4]uint64 {
		var h [4]uint64
		for seed := int64(1); seed <= 100; seed++ {
			p, pl := randomMetricsWorkload(t, seed, 16, 64, 5)
			for i, b := range bits(MulticastEnergy(p, pl, cost)) {
				h[i] = (h[i] ^ b) * 1099511628211 // FNV-1a's prime
			}
		}
		return h
	}
	for _, c := range []struct {
		name string
		got  func() [4]uint64
		want [4]uint64
	}{
		{"ResNet/HSC", resnet, [4]uint64{0x4217cbfc78231a8f, 0x4237164858691987, 0x4214c994497acbab, 0x4215b7d40a639fcb}},
		{"random", random, [4]uint64{0x40ff945edbdd2bf5, 0x410a112947b8ac56, 0x40fc1e311a4dd2fd, 0x40fcc48d260896dc}},
		{"100 small", small, [4]uint64{0x04bc493ce86df412, 0xeeb8b31b945c8361, 0x850cd62a87b7ae7a, 0x58fcfdc46700eeb0}},
	} {
		if got := c.got(); got != c.want {
			t.Errorf("%s: bits %x, want %x", c.name, got, c.want)
		}
	}
}
