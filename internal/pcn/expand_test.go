package pcn

import (
	"errors"
	"math"
	"strings"
	"testing"

	"snnmap/internal/hw"
	"snnmap/internal/place"
	"snnmap/internal/snn"
)

func TestExpandSyntheticShapes(t *testing.T) {
	cases := []struct {
		net      *snn.Net
		clusters int
		edges    int64
	}{
		{snn.DNN65K(), 16, 48},       // 3 layer pairs × 4×4 dense
		{snn.DNN16M(), 4096, 258048}, // 63 × 64×64
		{snn.CNN65K(), 16, 48},       // window 4 on 4-cluster layers = dense
		{snn.CNN16M(), 4096, 16128},  // 63 × 64 × 4
	}
	for _, c := range cases {
		p, err := Expand(c.net, DefaultPartition())
		if err != nil {
			t.Fatalf("%s: %v", c.net.Name, err)
		}
		if p.NumClusters != c.clusters {
			t.Errorf("%s clusters = %d, want %d", c.net.Name, p.NumClusters, c.clusters)
		}
		if p.NumEdges() != c.edges {
			t.Errorf("%s edges = %d, want %d", c.net.Name, p.NumEdges(), c.edges)
		}
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", c.net.Name, err)
		}
	}
}

func TestExpandTrafficConservation(t *testing.T) {
	// For every net: Σ w_P = Σ_conns To.Neurons × FanIn × rate.
	nets := []*snn.Net{snn.DNN65K(), snn.CNN65K(), snn.LeNetMNIST(), snn.MobileNet()}
	for _, n := range nets {
		p, err := Expand(n, DefaultPartition())
		if err != nil {
			t.Fatalf("%s: %v", n.Name, err)
		}
		// Net.Validate admits no self-loop Conn, so no traffic stays inside a
		// cluster of an expanded net.
		if p.InternalTraffic != 0 {
			t.Errorf("%s: InternalTraffic %g, want 0", n.Name, p.InternalTraffic)
		}
		var want float64
		for _, c := range n.Conns {
			want += float64(n.Layers[c.To].Neurons) * float64(c.FanIn) * n.RateOf(c.From)
		}
		got := p.TotalWeight()
		if math.Abs(got-want)/want > 1e-9 {
			t.Errorf("%s traffic %g, want %g", n.Name, got, want)
		}
	}
}

func TestExpandClusterSizes(t *testing.T) {
	n := &snn.Net{Name: "sizes"}
	n.Chain(snn.Layer{Name: "a", Neurons: 10}, 0, snn.Dense, 0)
	n.Chain(snn.Layer{Name: "b", Neurons: 7}, 10, snn.Dense, 0)
	p, err := Expand(n, PartitionConfig{Constraints: hw.Constraints{NeuronsPerCore: 4}})
	if err != nil {
		t.Fatal(err)
	}
	// Layer a: 4+4+2; layer b: 4+3.
	wantSizes := []int32{4, 4, 2, 4, 3}
	if p.NumClusters != 5 {
		t.Fatalf("clusters = %d, want 5", p.NumClusters)
	}
	for i, w := range wantSizes {
		if p.Neurons[i] != w {
			t.Errorf("cluster %d = %d neurons, want %d", i, p.Neurons[i], w)
		}
	}
	wantLayers := []int32{0, 0, 0, 1, 1}
	for i, w := range wantLayers {
		if p.Layer[i] != w {
			t.Errorf("cluster %d layer %d, want %d", i, p.Layer[i], w)
		}
	}
	// Per-cluster synapse accounting: layer b fan-in 10.
	if p.Synapses[3] != 40 || p.Synapses[4] != 30 {
		t.Errorf("synapses: %v", p.Synapses[3:])
	}
}

func TestExpandDenseWeightsProportional(t *testing.T) {
	n := &snn.Net{Name: "dense"}
	n.Chain(snn.Layer{Name: "a", Neurons: 6}, 0, snn.Dense, 0)
	n.Chain(snn.Layer{Name: "b", Neurons: 4}, 6, snn.Dense, 0)
	p, err := Expand(n, PartitionConfig{Constraints: hw.Constraints{NeuronsPerCore: 4}})
	if err != nil {
		t.Fatal(err)
	}
	// Clusters: a = {4, 2}, b = {4}. Traffic to b's cluster = 4×6 = 24,
	// split 4:2 across a's clusters → 16 and 8.
	tos0, ws0 := p.OutEdges(0)
	tos1, ws1 := p.OutEdges(1)
	if len(tos0) != 1 || ws0[0] != 16 {
		t.Errorf("edge a0→b: %v %v, want 16", tos0, ws0)
	}
	if len(tos1) != 1 || ws1[0] != 8 {
		t.Errorf("edge a1→b: %v %v, want 8", tos1, ws1)
	}
}

func TestExpandLocalWindow(t *testing.T) {
	n := &snn.Net{Name: "local"}
	n.Chain(snn.Layer{Name: "a", Neurons: 8}, 0, snn.Dense, 0)
	n.Chain(snn.Layer{Name: "b", Neurons: 8}, 2, snn.Local, 2)
	p, err := Expand(n, PartitionConfig{Constraints: hw.Constraints{NeuronsPerCore: 1}})
	if err != nil {
		t.Fatal(err)
	}
	// 8 source clusters, 8 target clusters, window 2: each target cluster
	// has exactly 2 inward edges (except clamping at the boundary keeps it
	// at 2), so 16 directed edges.
	if p.NumEdges() != 16 {
		t.Errorf("edges = %d, want 16", p.NumEdges())
	}
	deg := p.InDegrees()
	for i := 8; i < 16; i++ {
		if deg[i] != 2 {
			t.Errorf("target cluster %d in-degree %d, want 2", i, deg[i])
		}
	}
}

func TestExpandOneToOne(t *testing.T) {
	n := &snn.Net{Name: "o2o"}
	n.Chain(snn.Layer{Name: "a", Neurons: 8}, 0, snn.Dense, 0)
	n.Chain(snn.Layer{Name: "b", Neurons: 4}, 4, snn.OneToOne, 0)
	p, err := Expand(n, PartitionConfig{Constraints: hw.Constraints{NeuronsPerCore: 2}})
	if err != nil {
		t.Fatal(err)
	}
	// 4 source clusters, 2 target clusters: targets map to sources 0 and 3.
	if p.NumEdges() != 2 {
		t.Fatalf("edges = %d, want 2", p.NumEdges())
	}
	tos, ws := p.OutEdges(0)
	if len(tos) != 1 || tos[0] != 4 || ws[0] != 8 {
		t.Errorf("edge from source 0: %v %v", tos, ws)
	}
	tos, _ = p.OutEdges(3)
	if len(tos) != 1 || tos[0] != 5 {
		t.Errorf("edge from source 3: %v", tos)
	}
}

func TestExpandSynapseConstraint(t *testing.T) {
	n := &snn.Net{Name: "spc"}
	n.Chain(snn.Layer{Name: "a", Neurons: 16}, 0, snn.Dense, 0)
	n.Chain(snn.Layer{Name: "b", Neurons: 16}, 8, snn.Dense, 0)
	p, err := Expand(n, PartitionConfig{
		Constraints:     hw.Constraints{NeuronsPerCore: 16, SynapsesPerCore: 16},
		EnforceSynapses: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Layer b fan-in 8, CON_spc 16 → 2 neurons per cluster → 8 clusters.
	count := 0
	for i := 0; i < p.NumClusters; i++ {
		if p.Layer[i] == 1 {
			count++
			if p.Synapses[i] > 16 {
				t.Errorf("cluster %d exceeds synapse cap: %d", i, p.Synapses[i])
			}
		}
	}
	if count != 8 {
		t.Errorf("layer-b clusters = %d, want 8", count)
	}
}

func TestExpandRejectsInvalid(t *testing.T) {
	// 4096 neurons per cluster × fan-in 2^62 synapses each overflows int64.
	huge := &snn.Net{Name: "huge"}
	huge.Chain(snn.Layer{Name: "a", Neurons: 4096}, 0, snn.Dense, 0)
	huge.Chain(snn.Layer{Name: "b", Neurons: 4096}, 1<<62, snn.Dense, 0)
	for _, tc := range []struct {
		name string
		net  *snn.Net
		cfg  PartitionConfig
	}{
		{"empty net", &snn.Net{Name: "bad"}, DefaultPartition()},
		{"zero-layer SynthDNN", snn.SynthDNN("x", 0, 10), DefaultPartition()},
		{"zero-width SynthDNN", snn.SynthDNN("x", 3, 0), DefaultPartition()},
		{"zero fan-in SynthCNN", snn.SynthCNN("x", 3, 10, 0, 2), DefaultPartition()},
		{"zero CON_npc", snn.DNN65K(), PartitionConfig{}},
		{"synapse-count overflow", huge, DefaultPartition()},
	} {
		if _, err := Expand(tc.net, tc.cfg); !errors.Is(err, place.ErrBadConfig) {
			t.Errorf("%s: err = %v, want ErrBadConfig", tc.name, err)
		}
	}
}

// TestExpandRejectsNonFiniteTraffic: a Conn whose per-target traffic
// overflows float64 is an ErrBadConfig naming the Conn, under every pattern —
// not a PCN of +Inf weights whose metrics come out Inf and NaN.
func TestExpandRejectsNonFiniteTraffic(t *testing.T) {
	for _, c := range []struct {
		name    string
		pattern snn.Pattern
		window  int
	}{{"dense", snn.Dense, 0}, {"local", snn.Local, 3}, {"one-to-one", snn.OneToOne, 0}} {
		n := &snn.Net{Name: "inf"}
		n.Chain(snn.Layer{Name: "a", Neurons: 8192, Rate: 1e300}, 0, snn.Dense, 0)
		n.Chain(snn.Layer{Name: "b", Neurons: 8192}, 1e10, c.pattern, c.window)
		p, err := Expand(n, DefaultPartition())
		if !errors.Is(err, place.ErrBadConfig) || !strings.Contains(err.Error(), "conn 0") {
			t.Errorf("%s: err = %v, want ErrBadConfig naming conn 0", c.name, err)
		}
		if p != nil {
			t.Errorf("%s: Expand returned a PCN alongside its error", c.name)
		}
	}
}

func TestExpandAppliesRates(t *testing.T) {
	n := &snn.Net{Name: "rates"}
	n.Chain(snn.Layer{Name: "a", Neurons: 4, Rate: 3}, 0, snn.Dense, 0)
	n.Chain(snn.Layer{Name: "b", Neurons: 4}, 4, snn.Dense, 0)
	p, err := Expand(n, PartitionConfig{Constraints: hw.Constraints{NeuronsPerCore: 4}})
	if err != nil {
		t.Fatal(err)
	}
	// Traffic = 4 neurons × fan-in 4 × rate 3 = 48 on the single edge.
	tos, ws := p.OutEdges(0)
	if len(tos) != 1 || ws[0] != 48 {
		t.Fatalf("edge = %v %v, want weight 48", tos, ws)
	}
	// Doubling the source rate doubles every weight.
	n.Layers[0].Rate = 6
	p2, err := Expand(n, PartitionConfig{Constraints: hw.Constraints{NeuronsPerCore: 4}})
	if err != nil {
		t.Fatal(err)
	}
	_, ws2 := p2.OutEdges(0)
	if ws2[0] != 96 {
		t.Fatalf("doubled rate gave weight %g, want 96", ws2[0])
	}
}
