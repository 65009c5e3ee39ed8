package noc

import (
	"context"
	"errors"
	"math"
	"testing"

	"snnmap/internal/hw"
	"snnmap/internal/place"
)

func TestFaultAwareDetourDelivers(t *testing.T) {
	p := edgePCN(t, [][3]float64{{0, 1, 1}}, 2)
	mesh := hw.MustMesh(3, 3)
	pl := placeAt(t, p, mesh, mesh.Coord(0), mesh.Coord(2))
	d := hw.NewDefectMap(mesh)
	if err := d.FailLink(0, 1); err != nil {
		t.Fatal(err)
	}
	res, err := Simulate(p, pl, Config{Defects: d, FaultAware: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered != 1 || res.Dropped != 0 {
		t.Fatalf("detour run: delivered=%d dropped=%d, want 1/0", res.Delivered, res.Dropped)
	}
	if res.Injected != res.Delivered+res.Dropped {
		t.Fatalf("accounting broken: injected=%d delivered=%d dropped=%d", res.Injected, res.Delivered, res.Dropped)
	}
	// The direct XY path is 2 hops; a detour around the failed first link
	// must cross at least 4.
	if res.WireTraversals < 4 {
		t.Errorf("wire traversals = %d; a detour around link 0-1 needs >= 4", res.WireTraversals)
	}
}

func TestFaultUnawareDropsAtFailedLink(t *testing.T) {
	p := edgePCN(t, [][3]float64{{0, 1, 1}}, 2)
	mesh := hw.MustMesh(3, 3)
	pl := placeAt(t, p, mesh, mesh.Coord(0), mesh.Coord(2))
	d := hw.NewDefectMap(mesh)
	if err := d.FailLink(0, 1); err != nil {
		t.Fatal(err)
	}
	res, err := Simulate(p, pl, Config{Defects: d}) // FaultAware off
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered != 0 || res.Dropped != 1 || res.Injected != 1 {
		t.Fatalf("fault-unaware run: injected=%d delivered=%d dropped=%d, want 1/0/1",
			res.Injected, res.Delivered, res.Dropped)
	}
	if res.DeliveredFraction() != 0 {
		t.Errorf("DeliveredFraction = %g, want 0", res.DeliveredFraction())
	}
}

func TestDeadEndpointsDropAtInjection(t *testing.T) {
	for _, deadCore := range []int{0, 2} { // src, then dst
		p := edgePCN(t, [][3]float64{{0, 1, 1}}, 2)
		mesh := hw.MustMesh(3, 3)
		pl := placeAt(t, p, mesh, mesh.Coord(0), mesh.Coord(2))
		d := hw.NewDefectMap(mesh)
		d.MarkDead(deadCore)
		res, err := Simulate(p, pl, Config{Defects: d, FaultAware: true})
		if err != nil {
			t.Fatal(err)
		}
		if res.Injected != 1 || res.Dropped != 1 || res.Delivered != 0 {
			t.Fatalf("dead core %d: injected=%d delivered=%d dropped=%d, want 1/0/1",
				deadCore, res.Injected, res.Delivered, res.Dropped)
		}
	}
}

func TestDisconnectedComponentsDropAtInjection(t *testing.T) {
	// Isolate core 3 of a 2x2 mesh by failing both of its links; the spike
	// toward it is undeliverable by construction and must be dropped at
	// injection, not orbit until a TTL fires.
	p := edgePCN(t, [][3]float64{{0, 1, 1}}, 2)
	mesh := hw.MustMesh(2, 2)
	pl := placeAt(t, p, mesh, mesh.Coord(0), mesh.Coord(3))
	d := hw.NewDefectMap(mesh)
	if err := d.FailLink(1, 3); err != nil {
		t.Fatal(err)
	}
	if err := d.FailLink(2, 3); err != nil {
		t.Fatal(err)
	}
	res, err := Simulate(p, pl, Config{Defects: d, FaultAware: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Injected != 1 || res.Dropped != 1 || res.Delivered != 0 {
		t.Fatalf("injected=%d delivered=%d dropped=%d, want 1/0/1", res.Injected, res.Delivered, res.Dropped)
	}
	if res.WireTraversals != 0 {
		t.Errorf("undeliverable spike crossed %d wires, want 0", res.WireTraversals)
	}
}

func TestDetourTTLDropsSpike(t *testing.T) {
	// A reachable destination but a detour budget too small to round the
	// fault: the spike is abandoned with a drop, not an error.
	p := edgePCN(t, [][3]float64{{0, 1, 1}}, 2)
	mesh := hw.MustMesh(3, 3)
	pl := placeAt(t, p, mesh, mesh.Coord(0), mesh.Coord(2))
	d := hw.NewDefectMap(mesh)
	if err := d.FailLink(0, 1); err != nil {
		t.Fatal(err)
	}
	res, err := Simulate(p, pl, Config{Defects: d, FaultAware: true, MaxDetourHops: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered != 0 || res.Dropped != 1 {
		t.Fatalf("TTL run: delivered=%d dropped=%d, want 0/1", res.Delivered, res.Dropped)
	}
}

func TestFaultAwareLinkFaultAccounting(t *testing.T) {
	// A 16-cluster chain on a 4x4 mesh with seeded link faults: the run
	// must terminate with exact spike accounting regardless of how many
	// detours the faults force.
	edges := make([][3]float64, 0, 15)
	for i := 0; i < 15; i++ {
		edges = append(edges, [3]float64{float64(i), float64(i + 1), 3})
	}
	p := edgePCN(t, edges, 16)
	mesh := hw.MustMesh(4, 4)
	pl, err := place.New(p.NumClusters, mesh)
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < 16; c++ {
		pl.Assign(c, int32(c))
	}
	d := hw.InjectUniform(mesh, 0, 0.15, 5)
	if d.NumFailedLinks() == 0 {
		t.Fatal("seed produced no failed links; pick another seed")
	}
	res, err := Simulate(p, pl, Config{Defects: d, FaultAware: true, SpikesPerUnit: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Injected != res.Delivered+res.Dropped {
		t.Fatalf("accounting broken: injected=%d delivered=%d dropped=%d", res.Injected, res.Delivered, res.Dropped)
	}
	if res.Injected != 15*12 {
		t.Fatalf("injected = %d, want %d", res.Injected, 15*12)
	}
	if res.DeliveredFraction() < 0.5 {
		t.Errorf("delivered fraction %.3f suspiciously low for link-only faults", res.DeliveredFraction())
	}
}

func TestSimulateContextCanceled(t *testing.T) {
	p := edgePCN(t, [][3]float64{{0, 1, 1}}, 2)
	mesh := hw.MustMesh(3, 3)
	pl := placeAt(t, p, mesh, mesh.Coord(0), mesh.Coord(2))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := SimulateContext(ctx, p, pl, Config{})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("pre-canceled SimulateContext: got %v, want ErrCanceled", err)
	}
}

func TestMaxCyclesWrapsLivelock(t *testing.T) {
	p := edgePCN(t, [][3]float64{{0, 1, 1}}, 2)
	mesh := hw.MustMesh(4, 4)
	pl := placeAt(t, p, mesh, mesh.Coord(0), mesh.Coord(15))
	_, err := Simulate(p, pl, Config{MaxCycles: 1})
	if !errors.Is(err, ErrLivelock) {
		t.Fatalf("MaxCycles overrun: got %v, want ErrLivelock", err)
	}
}

func TestConfigValidate(t *testing.T) {
	if err := (Config{}).Validate(); err != nil {
		t.Fatalf("zero config must validate: %v", err)
	}
	if err := (Config{Routing: RouteO1Turn}).Validate(); err != nil {
		t.Fatalf("O1Turn with unbounded queues must validate: %v", err)
	}
	for name, bad := range map[string]Config{
		"unknown routing":    {Routing: Routing(9)},
		"o1turn bounded":     {Routing: RouteO1Turn, QueueCap: 4},
		"negative queue":     {QueueCap: -1},
		"negative spikes":    {SpikesPerUnit: -2},
		"NaN spikes":         {SpikesPerUnit: math.NaN()},
		"+Inf spikes":        {SpikesPerUnit: math.Inf(1)},
		"-Inf spikes":        {SpikesPerUnit: math.Inf(-1)},
		"negative interval":  {InjectionInterval: -1},
		"negative cycles":    {MaxCycles: -1},
		"negative detour":    {MaxDetourHops: -1},
		"negative watchdog":  {WatchdogCycles: -1},
		"negative max spike": {MaxSpikes: -1},
		"negative shards":    {Shards: -1},
	} {
		if err := bad.Validate(); !errors.Is(err, ErrBadConfig) {
			t.Errorf("%s: got %v, want ErrBadConfig", name, err)
		}
	}
	// Simulate surfaces the validation error before building any state.
	p := edgePCN(t, [][3]float64{{0, 1, 1}}, 2)
	mesh := hw.MustMesh(2, 2)
	pl := placeAt(t, p, mesh, mesh.Coord(0), mesh.Coord(1))
	if _, err := Simulate(p, pl, Config{QueueCap: -3}); !errors.Is(err, ErrBadConfig) {
		t.Errorf("Simulate with bad config: got %v, want ErrBadConfig", err)
	}
}

func TestDeliveredFractionEmptyRun(t *testing.T) {
	if f := (Result{}).DeliveredFraction(); f != 1 {
		t.Fatalf("empty run DeliveredFraction = %g, want 1", f)
	}
	r := Result{Injected: 4, Delivered: 3, Dropped: 1}
	if f := r.DeliveredFraction(); f != 0.75 {
		t.Fatalf("DeliveredFraction = %g, want 0.75", f)
	}
}

// TestTakeRules pins the injection attempt both engines share, in the
// reference's order: a blocked first hop counts a detour on every attempt;
// a spike with no usable first hop is dropped even when its source queue is
// full; a full queue stalls the spike without spending it; otherwise the
// spike leaves as a flit stamped with the cycle (in detour mode when its
// first hop is blocked).
func TestTakeRules(t *testing.T) {
	s := &simState{detourHops: 9}
	for _, tc := range []struct {
		name  string
		tr    train
		full  bool
		ok    bool
		want  accum
		count int32
		f     flit
	}{
		{"drop", train{drop: true, count: 2}, false, false, accum{dropped: 1}, 1, flit{}},
		{"drop-full", train{drop: true, count: 2}, true, false, accum{dropped: 1}, 1, flit{}},
		{"stall", train{count: 2}, true, false, accum{injStalls: 1}, 2, flit{}},
		{"stall-blocked", train{blocked: true, count: 2}, true, false, accum{injStalls: 1, detours: 1}, 2, flit{}},
		{"inject", train{dst: 5, yx: true, count: 2}, false, true, accum{injections: 1}, 1, flit{dst: 5, injected: 7, yx: true}},
		{"inject-blocked", train{dst: 5, blocked: true, count: 1}, false, true, accum{injections: 1, detours: 1}, 0, flit{dst: 5, injected: 7, detour: 9}},
	} {
		var a accum
		tr := tc.tr
		f, ok := s.take(&a, &tr, 7, tc.full)
		if ok != tc.ok || f != tc.f || a != tc.want || tr.count != tc.count {
			t.Errorf("%s: got ok=%v flit %+v accum %+v count %d, want ok=%v flit %+v accum %+v count %d",
				tc.name, ok, f, a, tr.count, tc.ok, tc.f, tc.want, tc.count)
		}
	}
}
