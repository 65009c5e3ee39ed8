package snnmap_test

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"

	"snnmap"
)

// TestQuickstartFlow exercises the README's quick-start path end to end
// through the public API only.
func TestQuickstartFlow(t *testing.T) {
	net := snnmap.LeNetMNIST()
	if err := net.Validate(); err != nil {
		t.Fatal(err)
	}
	p, err := snnmap.Expand(net, snnmap.DefaultPartition())
	if err != nil {
		t.Fatal(err)
	}
	if p.NumClusters != 9 {
		t.Fatalf("LeNet-MNIST clusters = %d, want 9 (Table 3)", p.NumClusters)
	}
	mesh := snnmap.MeshFor(p.NumClusters)
	if mesh.Rows != 3 || mesh.Cols != 3 {
		t.Fatalf("mesh = %v, want 3x3", mesh)
	}
	res, err := snnmap.Map(p, mesh, snnmap.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Placement.Validate(); err != nil {
		t.Fatal(err)
	}
	sum, err := snnmap.Evaluate(p, res.Placement, snnmap.DefaultCostModel(), snnmap.MetricOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Energy <= 0 {
		t.Error("energy must be positive")
	}

	// The proposed pipeline must beat a random placement.
	rnd, _, err := snnmap.RandomPlacement(p, mesh, snnmap.BaselineOptions{Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	rndSum, err := snnmap.Evaluate(p, rnd, snnmap.DefaultCostModel(), snnmap.MetricOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Energy > rndSum.Energy {
		t.Errorf("proposed energy %g worse than random %g", sum.Energy, rndSum.Energy)
	}
}

// TestEvaluateRejectsForeignPlacement evaluates DNN_65K (16 clusters) on
// placements that do not cover it — one cluster left unplaced, and placements
// of a 15- and a 17-cluster network saved and loaded back, as LoadPlacement
// hands them out — and wants ErrBadConfig, not a panic or a silent score.
func TestEvaluateRejectsForeignPlacement(t *testing.T) {
	expand := func(n *snnmap.Net) *snnmap.PCN {
		p, err := snnmap.Expand(n, snnmap.DefaultPartition())
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	place := func(p *snnmap.PCN) *snnmap.Placement {
		res, err := snnmap.Map(p, snnmap.MeshFor(p.NumClusters), snnmap.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		return res.Placement
	}
	p := expand(snnmap.DNN65K())
	if p.NumClusters != 16 {
		t.Fatalf("DNN_65K has %d clusters, want 16", p.NumClusters)
	}
	unplaced := place(p).Clone()
	unplaced.ClusterAt[unplaced.PosOf[5]] = -1
	unplaced.PosOf[5] = -1
	cases := map[string]*snnmap.Placement{"unplaced": unplaced}
	for _, n := range []*snnmap.Net{snnmap.SynthDNN("w5", 3, 5*4096), snnmap.SynthDNN("w1", 17, 4096)} {
		foreign := expand(n)
		var buf bytes.Buffer
		if err := snnmap.SavePlacement(&buf, place(foreign)); err != nil {
			t.Fatal(err)
		}
		loaded, err := snnmap.LoadPlacement(&buf)
		if err != nil {
			t.Fatal(err)
		}
		cases[n.Name] = loaded
	}
	if got := cases["w5"].NumClusters(); got != 15 {
		t.Fatalf("w5 placement holds %d clusters, want 15", got)
	}
	if got := cases["w1"].NumClusters(); got != 17 {
		t.Fatalf("w1 placement holds %d clusters, want 17", got)
	}
	for name, pl := range cases {
		sum, err := snnmap.Evaluate(p, pl, snnmap.DefaultCostModel(), snnmap.MetricOptions{})
		if !errors.Is(err, snnmap.ErrBadConfig) || sum != (snnmap.Summary{}) {
			t.Errorf("%s: Evaluate = %+v, %v; want a zero Summary and ErrBadConfig", name, sum, err)
		}
	}
	if _, err := snnmap.Evaluate(p, place(p), snnmap.DefaultCostModel(), snnmap.MetricOptions{}); err != nil {
		t.Fatalf("own placement: %v", err)
	}
}

// TestEvaluateRejectsUnknownCongestionMode: only CongestionAuto and
// CongestionSkip are modes; any other value fails with ErrBadConfig instead of
// reading as a zero MaxCongestion.
func TestEvaluateRejectsUnknownCongestionMode(t *testing.T) {
	p, err := snnmap.Expand(snnmap.DNN65K(), snnmap.DefaultPartition())
	if err != nil {
		t.Fatal(err)
	}
	res, err := snnmap.Map(p, snnmap.MeshFor(p.NumClusters), snnmap.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cost := snnmap.DefaultCostModel()
	for _, mode := range []snnmap.CongestionMode{-1, 2, 7} {
		sum, err := snnmap.Evaluate(p, res.Placement, cost, snnmap.MetricOptions{Congestion: mode})
		if !errors.Is(err, snnmap.ErrBadConfig) || sum != (snnmap.Summary{}) {
			t.Errorf("mode %d: Evaluate = %+v, %v; want a zero Summary and ErrBadConfig", mode, sum, err)
		}
	}
	for _, mode := range []snnmap.CongestionMode{snnmap.CongestionAuto, snnmap.CongestionSkip} {
		sum, err := snnmap.Evaluate(p, res.Placement, cost, snnmap.MetricOptions{Congestion: mode})
		if err != nil {
			t.Fatalf("mode %d: %v", mode, err)
		}
		if got := sum.MaxCongestion > 0; got != (mode == snnmap.CongestionAuto) {
			t.Errorf("mode %d: MaxCongestion %v", mode, sum.MaxCongestion)
		}
	}
}

func TestExplicitGraphPartitionFlow(t *testing.T) {
	var b snnmap.GraphBuilder
	l0 := b.AddNeurons(6, 0)
	l1 := b.AddNeurons(6, 1)
	for i := 0; i < 6; i++ {
		for j := 0; j < 6; j++ {
			b.AddSynapse(l0+i, l1+j, 1)
		}
	}
	g := b.Build()
	res, err := snnmap.Partition(g, snnmap.PartitionConfig{
		Constraints:   snnmap.Constraints{NeuronsPerCore: 3},
		SplitAtLayers: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.PCN.NumClusters != 4 {
		t.Fatalf("clusters = %d, want 4", res.PCN.NumClusters)
	}
	mesh := snnmap.MeshFor(res.PCN.NumClusters)
	mr, err := snnmap.Map(res.PCN, mesh, snnmap.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := mr.Placement.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBaselinesThroughPublicAPI(t *testing.T) {
	p, err := snnmap.Expand(snnmap.CNN65K(), snnmap.DefaultPartition())
	if err != nil {
		t.Fatal(err)
	}
	mesh := snnmap.MeshFor(p.NumClusters)
	opts := snnmap.BaselineOptions{Seed: 1, Budget: 5 * time.Second}
	for name, f := range map[string]func(*snnmap.PCN, snnmap.Mesh, snnmap.BaselineOptions) (*snnmap.Placement, snnmap.BaselineStats, error){
		"random":        snnmap.RandomPlacement,
		"truenorth":     snnmap.TrueNorthPlacement,
		"dfsynthesizer": snnmap.DFSynthesizerPlacement,
		"pso":           snnmap.PSOPlacement,
	} {
		pl, _, err := f(p, mesh, opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := pl.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestSimulateThroughPublicAPI(t *testing.T) {
	p, err := snnmap.Expand(snnmap.LeNetMNIST(), snnmap.DefaultPartition())
	if err != nil {
		t.Fatal(err)
	}
	mesh := snnmap.MeshFor(p.NumClusters)
	res, err := snnmap.Map(p, mesh, snnmap.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	sim, err := snnmap.Simulate(p, res.Placement, snnmap.SimConfig{SpikesPerUnit: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	if sim.Delivered != sim.Injected || sim.Delivered == 0 {
		t.Errorf("delivered %d of %d", sim.Delivered, sim.Injected)
	}
}

func TestCustomHardwareFlow(t *testing.T) {
	// Partition the same net under a Table 1 platform's per-core limits.
	loihi, ok := snnmap.PlatformByName("Loihi")
	if !ok {
		t.Fatal("missing Loihi preset")
	}
	p, err := snnmap.Expand(snnmap.LeNetMNIST(), snnmap.PartitionConfig{
		Constraints: loihi.Constraints(),
	})
	if err != nil {
		t.Fatal(err)
	}
	// Loihi cores hold 128 neurons → far more clusters than the default.
	if p.NumClusters <= 9 {
		t.Errorf("Loihi clusters = %d, want many more than 9", p.NumClusters)
	}
	mesh := snnmap.MeshFor(p.NumClusters)
	if _, err := snnmap.Map(p, mesh, snnmap.DefaultConfig()); err != nil {
		t.Fatal(err)
	}
}

func TestFinetunePublic(t *testing.T) {
	p, err := snnmap.Expand(snnmap.DNN65K(), snnmap.DefaultPartition())
	if err != nil {
		t.Fatal(err)
	}
	mesh := snnmap.MeshFor(p.NumClusters)
	pl, err := snnmap.InitialPlacement(p, mesh, snnmap.Hilbert{})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := snnmap.Finetune(p, pl, snnmap.FDConfig{Potential: snnmap.PotentialL2Sq{}})
	if err != nil {
		t.Fatal(err)
	}
	if stats.FinalEnergy > stats.InitialEnergy {
		t.Error("finetune must not worsen energy")
	}
}

func TestRecurrentWorkloadEndToEnd(t *testing.T) {
	// Algorithm 2 tolerates cycles; a reservoir (liquid state machine)
	// exercises that through the whole pipeline.
	net, err := snnmap.Reservoir("lsm", snnmap.ReservoirConfig{
		Inputs: 4096, ReservoirNeurons: 32768, Readouts: 256,
	})
	if err != nil {
		t.Fatal(err)
	}
	p, err := snnmap.Expand(net, snnmap.DefaultPartition())
	if err != nil {
		t.Fatal(err)
	}
	mesh := snnmap.MeshFor(p.NumClusters)
	res, err := snnmap.Map(p, mesh, snnmap.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Placement.Validate(); err != nil {
		t.Fatal(err)
	}
	sum, err := snnmap.Evaluate(p, res.Placement, snnmap.DefaultCostModel(), snnmap.MetricOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rnd, _, err := snnmap.RandomPlacement(p, mesh, snnmap.BaselineOptions{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	base, err := snnmap.Evaluate(p, rnd, snnmap.DefaultCostModel(), snnmap.MetricOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Energy > base.Energy {
		t.Errorf("recurrent mapping worse than random: %g vs %g", sum.Energy, base.Energy)
	}
}

// TestFaultToleranceThroughPublicAPI walks the README's fault-tolerance
// section end to end: map around dead cores, simulate with fault-aware
// routing on the matching faulty NoC, repair after an in-field failure,
// round-trip the defect map, and cancel promptly.
func TestFaultToleranceThroughPublicAPI(t *testing.T) {
	p, err := snnmap.Expand(snnmap.LeNetMNIST(), snnmap.DefaultPartition())
	if err != nil {
		t.Fatal(err)
	}
	mesh, err := snnmap.NewMesh(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	d := snnmap.NewDefectMap(mesh)
	d.MarkDead(5)
	d.MarkDead(10)
	if err := d.FailLink(2, 3); err != nil {
		t.Fatal(err)
	}

	cfg := snnmap.DefaultConfig()
	cfg.Defects = d
	res, err := snnmap.Map(p, mesh, cfg)
	if err != nil {
		t.Fatal(err)
	}
	pl := res.Placement
	if err := pl.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := pl.ValidateDefects(d); err != nil {
		t.Fatal(err)
	}

	sim, err := snnmap.Simulate(p, pl, snnmap.SimConfig{
		SpikesPerUnit: 1e-3, Defects: d,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sim.Injected != sim.Delivered+sim.Dropped {
		t.Fatalf("accounting broken: injected=%d delivered=%d dropped=%d", sim.Injected, sim.Delivered, sim.Dropped)
	}
	if sim.DeliveredFraction() < 0.99 {
		t.Errorf("delivered fraction %.4f < 0.99", sim.DeliveredFraction())
	}

	// One more core fails in the field; the repair moves exactly one cluster.
	d2 := d.Clone()
	d2.MarkDead(int(pl.PosOf[0]))
	st, err := snnmap.Remap(p, pl, d2, snnmap.DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	if st.Moved != 1 {
		t.Fatalf("remap moved %d clusters, want 1", st.Moved)
	}
	if err := pl.ValidateDefects(d2); err != nil {
		t.Fatal(err)
	}
	g := snnmap.EvaluateDegradation(p, pl, d2)
	if g.DeadCores != 3 || g.HealthyCores != 13 {
		t.Errorf("degradation summary wrong: %+v", g)
	}

	// The defect map round-trips through its JSON form.
	var buf bytes.Buffer
	if err := snnmap.SaveDefectMap(&buf, d2); err != nil {
		t.Fatal(err)
	}
	back, err := snnmap.LoadDefectMap(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumDead() != 3 || back.NumFailedLinks() != 1 {
		t.Errorf("round-trip lost defects: %d dead, %d links", back.NumDead(), back.NumFailedLinks())
	}
}

func TestCancellationThroughPublicAPI(t *testing.T) {
	p, err := snnmap.Expand(snnmap.LeNetMNIST(), snnmap.DefaultPartition())
	if err != nil {
		t.Fatal(err)
	}
	mesh := snnmap.MeshFor(p.NumClusters)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	if _, err := snnmap.MapContext(ctx, p, mesh, snnmap.DefaultConfig()); !errors.Is(err, snnmap.ErrCanceled) {
		t.Fatalf("MapContext: got %v, want ErrCanceled", err)
	}
	if el := time.Since(start); el > 100*time.Millisecond {
		t.Fatalf("cancellation took %v, want < 100ms", el)
	}
	res, err := snnmap.Map(p, mesh, snnmap.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := snnmap.SimulateContext(ctx, p, res.Placement, snnmap.SimConfig{SpikesPerUnit: 1e-3}); !errors.Is(err, snnmap.ErrCanceled) {
		t.Fatalf("SimulateContext: got %v, want ErrCanceled", err)
	}
}
