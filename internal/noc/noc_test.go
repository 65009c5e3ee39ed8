package noc

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"snnmap/internal/geom"
	"snnmap/internal/hw"
	"snnmap/internal/metrics"
	"snnmap/internal/pcn"
	"snnmap/internal/place"
	"snnmap/internal/snn"
)

func edgePCN(t *testing.T, edges [][3]float64, n int) *pcn.PCN {
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

func placeAt(t *testing.T, p *pcn.PCN, mesh hw.Mesh, at ...geom.Point) *place.Placement {
	t.Helper()
	pl, err := place.New(p.NumClusters, mesh)
	if err != nil {
		t.Fatal(err)
	}
	for c, pt := range at {
		pl.Assign(c, int32(mesh.Index(pt)))
	}
	return pl
}

func TestSingleSpikeLatencyIsHopsPlusOne(t *testing.T) {
	p := edgePCN(t, [][3]float64{{0, 1, 1}}, 2)
	mesh := hw.MustMesh(4, 4)
	pl := placeAt(t, p, mesh, geom.Point{X: 0, Y: 0}, geom.Point{X: 2, Y: 3})
	res, err := Simulate(p, pl, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered != 1 || res.Injected != 1 {
		t.Fatalf("delivered %d injected %d", res.Delivered, res.Injected)
	}
	// 5 hops → serviced by 6 routers → 6 cycles uncontended.
	if res.MaxLatencyCycles != 6 || res.AvgLatencyCycles != 6 {
		t.Errorf("latency = %g/%d cycles, want 6", res.AvgLatencyCycles, res.MaxLatencyCycles)
	}
	if res.WireTraversals != 5 {
		t.Errorf("wire traversals = %d, want 5", res.WireTraversals)
	}
	if res.AvgHops != 5 {
		t.Errorf("avg hops = %g, want 5", res.AvgHops)
	}
}

func TestXYRoutingPath(t *testing.T) {
	// XY (column-first) routing: traversal counts land exactly on the
	// L-shaped path through (0,0)→(0,3)→(2,3).
	p := edgePCN(t, [][3]float64{{0, 1, 1}}, 2)
	mesh := hw.MustMesh(3, 4)
	pl := placeAt(t, p, mesh, geom.Point{X: 0, Y: 0}, geom.Point{X: 2, Y: 3})
	res, err := Simulate(p, pl, Config{})
	if err != nil {
		t.Fatal(err)
	}
	wantPath := []geom.Point{{X: 0, Y: 0}, {X: 0, Y: 1}, {X: 0, Y: 2}, {X: 0, Y: 3}, {X: 1, Y: 3}, {X: 2, Y: 3}}
	for idx, count := range res.RouterTraversals {
		pt := mesh.Coord(idx)
		want := int64(0)
		for _, p := range wantPath {
			if p == pt {
				want = 1
			}
		}
		if count != want {
			t.Errorf("router %v traversals = %d, want %d", pt, count, want)
		}
	}
}

func TestSimEnergyMatchesAnalyticMetric(t *testing.T) {
	// With SpikesPerUnit=1 and integer weights, simulated energy equals
	// Eq. 9 exactly.
	p := edgePCN(t, [][3]float64{{0, 1, 3}, {1, 2, 2}, {0, 3, 4}}, 4)
	mesh := hw.MustMesh(3, 3)
	pl := placeAt(t, p, mesh,
		geom.Point{X: 0, Y: 0}, geom.Point{X: 2, Y: 2}, geom.Point{X: 0, Y: 2}, geom.Point{X: 1, Y: 1})
	cost := hw.DefaultCostModel()
	res, err := Simulate(p, pl, Config{Cost: cost})
	if err != nil {
		t.Fatal(err)
	}
	analytic := metrics.Evaluate(p, pl, cost, metrics.Options{Congestion: metrics.CongestionSkip})
	if math.Abs(res.Energy-analytic.Energy) > 1e-9 {
		t.Errorf("sim energy %g, analytic %g", res.Energy, analytic.Energy)
	}
}

func TestSimAvgHopsMatchesWeightedDistance(t *testing.T) {
	p := edgePCN(t, [][3]float64{{0, 1, 2}, {0, 2, 2}}, 3)
	mesh := hw.MustMesh(2, 3)
	pl := placeAt(t, p, mesh, geom.Point{X: 0, Y: 0}, geom.Point{X: 0, Y: 1}, geom.Point{X: 1, Y: 2})
	res, err := Simulate(p, pl, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Distances 1 and 3, equal weights → avg 2.
	if res.AvgHops != 2 {
		t.Errorf("avg hops = %g, want 2", res.AvgHops)
	}
}

func TestSimContentionCreatesQueueing(t *testing.T) {
	// Many flows through one column force queue growth and extra latency.
	var edges [][3]float64
	for i := 0; i < 6; i++ {
		edges = append(edges, [3]float64{float64(i), 6, 20})
	}
	p := edgePCN(t, edges, 7)
	mesh := hw.MustMesh(7, 2)
	at := make([]geom.Point, 7)
	for i := 0; i < 6; i++ {
		at[i] = geom.Point{X: i, Y: 0}
	}
	at[6] = geom.Point{X: 6, Y: 1}
	pl := placeAt(t, p, mesh, at...)
	res, err := Simulate(p, pl, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered != res.Injected {
		t.Fatalf("lost spikes: %d/%d", res.Delivered, res.Injected)
	}
	if res.MaxQueueLen < 2 {
		t.Errorf("expected queue buildup, max queue = %d", res.MaxQueueLen)
	}
	// Latency must exceed the uncontended bound for at least some spikes.
	if float64(res.MaxLatencyCycles) <= 8 {
		t.Errorf("max latency %d should exceed the uncontended path length", res.MaxLatencyCycles)
	}
}

func TestSimSpikeCap(t *testing.T) {
	p := edgePCN(t, [][3]float64{{0, 1, 100}}, 2)
	mesh := hw.MustMesh(1, 2)
	pl := placeAt(t, p, mesh, geom.Point{X: 0, Y: 0}, geom.Point{X: 0, Y: 1})
	if _, err := Simulate(p, pl, Config{limits: limits{maxSpikes: 10}}); !errors.Is(err, place.ErrCapacityExceeded) {
		t.Errorf("exceeding the spike limit: got %v, want ErrCapacityExceeded", err)
	}
}

// TestSimStateHugeSpikeCounts: a spike count past int64's range (a huge
// SpikesPerUnit or edge weight) is a capacity error, never the one spike per
// edge its wrapped int64 conversion used to clamp to; a non-finite
// SpikesPerUnit is a configuration error.
func TestSimStateHugeSpikeCounts(t *testing.T) {
	mesh := hw.MustMesh(1, 2)
	for _, tc := range []struct {
		name   string
		weight float64
		cfg    Config
		want   error
	}{
		{"SpikesPerUnit 1e300", 1, Config{SpikesPerUnit: 1e300}, place.ErrCapacityExceeded},
		{"SpikesPerUnit 1e7", 1, Config{SpikesPerUnit: 1e7}, place.ErrCapacityExceeded},
		{"weight 1e19", 1e19, Config{}, place.ErrCapacityExceeded},
		{"weight 1e300 overflows", 1e300, Config{SpikesPerUnit: 1e300}, place.ErrCapacityExceeded},
		{"SpikesPerUnit NaN", 1, Config{SpikesPerUnit: math.NaN()}, ErrBadConfig},
		{"SpikesPerUnit +Inf", 1, Config{SpikesPerUnit: math.Inf(1)}, ErrBadConfig},
	} {
		p := edgePCN(t, [][3]float64{{0, 1, tc.weight}}, 2)
		pl := placeAt(t, p, mesh, geom.Point{X: 0, Y: 0}, geom.Point{X: 0, Y: 1})
		if s, err := newSimState(p, pl, tc.cfg); !errors.Is(err, tc.want) {
			injected := int64(-1)
			if s != nil {
				injected = s.res.Injected
			}
			t.Errorf("%s: newSimState injected %d, err %v; want %v", tc.name, injected, err, tc.want)
		}
	}
}

// TestSimRejectsBadPlacement: an unplaced cluster or a placement shorter
// than the PCN used to index the defect tables with -1 and panic.
func TestSimRejectsBadPlacement(t *testing.T) {
	p := edgePCN(t, [][3]float64{{0, 1, 1}}, 2)
	mesh := hw.MustMesh(2, 2)
	unplaced := placeAt(t, p, mesh, geom.Point{X: 0, Y: 0}) // cluster 1 stays place.None
	short, err := place.New(1, mesh)
	if err != nil {
		t.Fatal(err)
	}
	short.Assign(0, 0)
	offMesh := placeAt(t, p, mesh, geom.Point{X: 0, Y: 0}, geom.Point{X: 0, Y: 1})
	offMesh.PosOf[1] = int32(mesh.Cores())
	for name, pl := range map[string]*place.Placement{"unplaced": unplaced, "short": short, "off-mesh": offMesh} {
		if _, err := Simulate(p, pl, Config{}); !errors.Is(err, ErrBadConfig) {
			t.Errorf("%s: Simulate got %v, want ErrBadConfig", name, err)
		}
		if _, err := simulateReference(context.Background(), p, pl, Config{}); !errors.Is(err, ErrBadConfig) {
			t.Errorf("%s: simulateReference got %v, want ErrBadConfig", name, err)
		}
	}
}

// TestSimLimitsFitInt32: spike counts and cycle stamps are int32 inside the
// engine, so the limits are constants a compile-time assertion holds under
// MaxInt32, and an edge of weight 3e9 (which once yielded a negative train
// count under a 1<<40 spike limit) is a typed capacity error.
func TestSimLimitsFitInt32(t *testing.T) {
	p := edgePCN(t, [][3]float64{{0, 1, 3e9}}, 2)
	mesh := hw.MustMesh(1, 2)
	pl := placeAt(t, p, mesh, geom.Point{X: 0, Y: 0}, geom.Point{X: 0, Y: 1})
	for _, cfg := range []Config{{}, {limits: limits{maxSpikes: math.MaxInt32}}} {
		if _, err := Simulate(p, pl, cfg); !errors.Is(err, place.ErrCapacityExceeded) {
			t.Errorf("maxSpikes %d: got %v, want ErrCapacityExceeded", cfg.limits.maxSpikes, err)
		}
	}
	for name, v := range map[string]int64{"maxCycles": maxCycles, "maxSpikes": maxSpikes, "watchdogCycles": watchdogCycles} {
		if v <= 0 || v > math.MaxInt32 {
			t.Errorf("%s = %d, want in (0, MaxInt32]", name, v)
		}
	}
}

func TestSimDeterminism(t *testing.T) {
	p := edgePCN(t, [][3]float64{{0, 1, 5}, {1, 2, 3}, {2, 0, 2}}, 3)
	mesh := hw.MustMesh(2, 2)
	pl := placeAt(t, p, mesh, geom.Point{X: 0, Y: 0}, geom.Point{X: 0, Y: 1}, geom.Point{X: 1, Y: 0})
	a, err := Simulate(p, pl, Config{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Simulate(p, pl, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Cycles != b.Cycles || a.Energy != b.Energy || a.AvgLatencyCycles != b.AvgLatencyCycles {
		t.Error("simulation must be deterministic")
	}
}

// TestSimMatchesAnalyticEnergyProperty is the substrate-level integration
// property: for any random PCN with integer weights and any placement, the
// simulated energy equals Eq. 9 exactly (SpikesPerUnit = 1).
func TestSimMatchesAnalyticEnergyProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(10) + 2
		var b snn.GraphBuilder
		b.AddNeurons(n, -1)
		for e := 0; e < rng.Intn(30); e++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				b.AddSynapse(u, v, float64(rng.Intn(4)+1))
			}
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
		cost := hw.DefaultCostModel()
		analytic := metrics.Evaluate(res.PCN, pl, cost, metrics.Options{Congestion: metrics.CongestionSkip})
		sim, err := Simulate(res.PCN, pl, Config{Cost: cost})
		return err == nil && sim.Delivered == sim.Injected && math.Abs(sim.Energy-analytic.Energy) <= 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
