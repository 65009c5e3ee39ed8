package metrics

import (
	"math"
	"testing"
	"testing/quick"

	"snnmap/internal/geom"
	"snnmap/internal/hw"
	"snnmap/internal/pcn"
	"snnmap/internal/place"
	"snnmap/internal/snn"
)

// linePCN builds a 2-cluster PCN with a single edge 0→1 of weight w.
func linePCN(t *testing.T, w float64) *pcn.PCN {
	t.Helper()
	var b snn.GraphBuilder
	b.AddNeurons(2, -1)
	b.AddSynapse(0, 1, w)
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

func TestEvaluateSingleEdgeHandChecked(t *testing.T) {
	p := linePCN(t, 10)
	mesh := hw.MustMesh(4, 4)
	pl := placeAt(t, p, mesh, geom.Point{X: 0, Y: 0}, geom.Point{X: 2, Y: 1})
	cost := hw.DefaultCostModel()
	s := Evaluate(p, pl, cost, Options{})

	// Distance 3. Energy (Eq. 9) = w·((d+1)·EN_r + d·EN_w) = 10·(4 + 0.3).
	if want := 10 * (4 + 0.3); math.Abs(s.Energy-want) > 1e-12 {
		t.Errorf("energy = %g, want %g", s.Energy, want)
	}
	// Latency (Eqs. 10-11) = (d+1)·L_r + d·L_w = 4 + 0.03.
	if want := 4.03; math.Abs(s.AvgLatency-want) > 1e-12 || math.Abs(s.MaxLatency-want) > 1e-12 {
		t.Errorf("latency = %g/%g, want %g", s.AvgLatency, s.MaxLatency, want)
	}
	// Avg congestion (Eq. 12) = w·(d+1)/(N·M) = 40/16.
	if want := 40.0 / 16; math.Abs(s.AvgCongestion-want) > 1e-12 {
		t.Errorf("avg congestion = %g, want %g", s.AvgCongestion, want)
	}
	// Max congestion: the source and target routers carry the full flow
	// (Expe = 1); interior routers carry fractions.
	if math.Abs(s.MaxCongestion-10) > 1e-12 {
		t.Errorf("max congestion = %g, want 10", s.MaxCongestion)
	}
}

func TestEvaluateMultiEdgeLatencyWeighting(t *testing.T) {
	// Edges of distance 1 (weight 3) and distance 2 (weight 1):
	// avg latency = (3·lat1 + 1·lat2) / 4.
	var b snn.GraphBuilder
	b.AddNeurons(3, -1)
	b.AddSynapse(0, 1, 3)
	b.AddSynapse(0, 2, 1)
	res, err := pcn.Partition(b.Build(), pcn.PartitionConfig{Constraints: hw.Constraints{NeuronsPerCore: 1}})
	if err != nil {
		t.Fatal(err)
	}
	mesh := hw.MustMesh(1, 3)
	pl := placeAt(t, res.PCN, mesh, geom.Point{X: 0, Y: 0}, geom.Point{X: 0, Y: 1}, geom.Point{X: 0, Y: 2})
	cost := hw.DefaultCostModel()
	s := Evaluate(res.PCN, pl, cost, Options{})
	lat1 := cost.SpikeLatency(1)
	lat2 := cost.SpikeLatency(2)
	if want := (3*lat1 + lat2) / 4; math.Abs(s.AvgLatency-want) > 1e-12 {
		t.Errorf("avg latency = %g, want %g", s.AvgLatency, want)
	}
	if math.Abs(s.MaxLatency-lat2) > 1e-12 {
		t.Errorf("max latency = %g, want %g", s.MaxLatency, lat2)
	}
}

func TestExpeDPAgainstClosedForm(t *testing.T) {
	f := func(dxu, dyu, uu, vu uint8) bool {
		dx, dy := int(dxu%10), int(dyu%10)
		if dx == 0 && dy == 0 {
			return true
		}
		u, v := int(uu)%(dx+1), int(vu)%(dy+1)
		grid := expeGrid(dx, dy)
		dp := grid[u*(dy+1)+v]
		cf := ExpeClosedForm(u, v, dx, dy)
		return math.Abs(dp-cf) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestExpeGridRowSums(t *testing.T) {
	// Conservation: the expectation over each anti-diagonal (u+v = k)
	// sums to 1 — every spike crosses each distance shell exactly once.
	for _, d := range [][2]int{{3, 4}, {0, 5}, {5, 0}, {7, 7}, {1, 1}} {
		dx, dy := d[0], d[1]
		grid := expeGrid(dx, dy)
		for k := 0; k <= dx+dy; k++ {
			var sum float64
			for u := 0; u <= dx; u++ {
				v := k - u
				if v < 0 || v > dy {
					continue
				}
				sum += grid[u*(dy+1)+v]
			}
			if math.Abs(sum-1) > 1e-9 {
				t.Errorf("dx=%d dy=%d shell %d sums to %g", dx, dy, k, sum)
			}
		}
	}
}

func TestExpeFunction(t *testing.T) {
	mesh := hw.MustMesh(8, 8)
	src := geom.Point{X: 1, Y: 1}
	dst := geom.Point{X: 3, Y: 4}
	// Outside the bounding box → 0.
	if Expe(geom.Point{X: 0, Y: 0}, src, dst, mesh) != 0 {
		t.Error("outside bbox must be 0")
	}
	// Source and target carry the full flow.
	if Expe(src, src, dst, mesh) != 1 || Expe(dst, src, dst, mesh) != 1 {
		t.Error("endpoints must be 1")
	}
	// First steps split evenly.
	if got := Expe(geom.Point{X: 2, Y: 1}, src, dst, mesh); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("first x-step = %g, want 0.5", got)
	}
	if got := Expe(geom.Point{X: 1, Y: 2}, src, dst, mesh); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("first y-step = %g, want 0.5", got)
	}
	// Works in every direction (negative deltas).
	if got := Expe(geom.Point{X: 1, Y: 1}, geom.Point{X: 3, Y: 4}, geom.Point{X: 1, Y: 1}, mesh); got != 1 {
		t.Errorf("reverse-direction target = %g, want 1", got)
	}
}

func TestCongestionGridTotalsMatchAverage(t *testing.T) {
	// Σ grid = Σ_e w_e (dist_e + 1), the invariant behind the cheap
	// average-congestion computation.
	var b snn.GraphBuilder
	b.AddNeurons(4, -1)
	b.AddSynapse(0, 1, 2)
	b.AddSynapse(1, 2, 3)
	b.AddSynapse(0, 3, 1)
	res, err := pcn.Partition(b.Build(), pcn.PartitionConfig{Constraints: hw.Constraints{NeuronsPerCore: 1}})
	if err != nil {
		t.Fatal(err)
	}
	mesh := hw.MustMesh(3, 3)
	pl := placeAt(t, res.PCN, mesh,
		geom.Point{X: 0, Y: 0}, geom.Point{X: 2, Y: 2}, geom.Point{X: 0, Y: 2}, geom.Point{X: 2, Y: 0})
	grid := CongestionGrid(res.PCN, pl, 1, 1)
	var total float64
	for _, v := range grid {
		total += v
	}
	var want float64
	for c := 0; c < res.PCN.NumClusters; c++ {
		tos, ws := res.PCN.OutEdges(c)
		for k, to := range tos {
			want += ws[k] * float64(geom.Manhattan(pl.Of(c), pl.Of(int(to)))+1)
		}
	}
	if math.Abs(total-want) > 1e-9 {
		t.Errorf("grid total %g, want %g", total, want)
	}
	s := Evaluate(res.PCN, pl, hw.DefaultCostModel(), Options{})
	if math.Abs(s.AvgCongestion-want/9) > 1e-9 {
		t.Errorf("avg congestion %g, want %g", s.AvgCongestion, want/9)
	}
}

func TestCongestionSampledApproximatesExact(t *testing.T) {
	// A many-edge PCN where stride sampling must stay within a reasonable
	// factor of the exact maximum.
	g := snn.FullyConnected(4, 16)
	res, err := pcn.Partition(g, pcn.PartitionConfig{Constraints: hw.Constraints{NeuronsPerCore: 4}})
	if err != nil {
		t.Fatal(err)
	}
	mesh := hw.MustMesh(4, 4)
	pl, err := place.Sequential(res.PCN.NumClusters, mesh)
	if err != nil {
		t.Fatal(err)
	}
	exact := Evaluate(res.PCN, pl, hw.DefaultCostModel(), Options{})
	sampled := Evaluate(res.PCN, pl, hw.DefaultCostModel(), Options{limits: forceSampled(16)})
	if sampled.MaxCongestion < exact.MaxCongestion*0.3 || sampled.MaxCongestion > exact.MaxCongestion*3 {
		t.Errorf("sampled max congestion %g too far from exact %g", sampled.MaxCongestion, exact.MaxCongestion)
	}
	// Energy/latency/avg-congestion must be identical regardless of mode.
	if sampled.Energy != exact.Energy || sampled.AvgCongestion != exact.AvgCongestion {
		t.Error("sampling must not affect the analytic metrics")
	}
}

func TestCongestionSkip(t *testing.T) {
	p := linePCN(t, 5)
	mesh := hw.MustMesh(2, 2)
	pl := placeAt(t, p, mesh, geom.Point{X: 0, Y: 0}, geom.Point{X: 1, Y: 1})
	s := Evaluate(p, pl, hw.DefaultCostModel(), Options{Congestion: CongestionSkip})
	if s.MaxCongestion != 0 {
		t.Error("skip mode must leave max congestion zero")
	}
	if s.Energy == 0 {
		t.Error("energy must still be computed")
	}
}

func TestNormalize(t *testing.T) {
	a := Summary{Energy: 50, AvgLatency: 2, MaxLatency: 4, AvgCongestion: 10, MaxCongestion: 20}
	b := Summary{Energy: 100, AvgLatency: 4, MaxLatency: 8, AvgCongestion: 20, MaxCongestion: 40}
	n := a.Normalize(b)
	if n.Energy != 0.5 || n.AvgLatency != 0.5 || n.MaxLatency != 0.5 || n.AvgCongestion != 0.5 || n.MaxCongestion != 0.5 {
		t.Errorf("normalize = %+v", n)
	}
	z := a.Normalize(Summary{})
	if z.Energy != 0 {
		t.Error("zero baseline must normalize to 0")
	}
}

func TestSummaryString(t *testing.T) {
	s := Summary{Energy: 1, AvgLatency: 2, MaxLatency: 3, AvgCongestion: 4, MaxCongestion: 5}
	if s.String() == "" {
		t.Error("empty render")
	}
}

func TestBinomial(t *testing.T) {
	cases := []struct {
		n, k int
		want float64
	}{
		{0, 0, 1}, {5, 0, 1}, {5, 5, 1}, {5, 2, 10}, {10, 3, 120}, {4, 7, 0}, {4, -1, 0},
	}
	for _, c := range cases {
		if got := binomial(c.n, c.k); got != c.want {
			t.Errorf("binomial(%d,%d) = %g, want %g", c.n, c.k, got, c.want)
		}
	}
}
