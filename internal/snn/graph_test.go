package snn

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestGraphBuilderBasics(t *testing.T) {
	var b GraphBuilder
	n0 := b.AddNeuron(0)
	n1 := b.AddNeuron(0)
	n2 := b.AddNeuron(1)
	if n0 != 0 || n1 != 1 || n2 != 2 {
		t.Fatalf("neuron ids %d %d %d", n0, n1, n2)
	}
	b.AddSynapse(n0, n2, 2.5)
	b.AddSynapse(n1, n2, 1.0)
	b.AddSynapse(n0, n1, 0.5)
	g := b.Build()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.NumNeurons != 3 || g.NumSynapses() != 3 {
		t.Fatalf("graph size %d neurons %d synapses", g.NumNeurons, g.NumSynapses())
	}
	tos, ws := g.OutEdges(0)
	if len(tos) != 2 || tos[0] != 1 || tos[1] != 2 || ws[0] != 0.5 || ws[1] != 2.5 {
		t.Errorf("out edges of 0: %v %v", tos, ws)
	}
	if g.FanIn[2] != 2 || g.FanIn[1] != 1 || g.FanIn[0] != 0 {
		t.Errorf("fan-in = %v", g.FanIn)
	}
	if g.Layer == nil || g.Layer[2] != 1 {
		t.Errorf("layer tags = %v", g.Layer)
	}
}

func TestGraphBuilderNoLayers(t *testing.T) {
	var b GraphBuilder
	b.AddNeurons(3, -1)
	g := b.Build()
	if g.Layer != nil {
		t.Error("graph without layer tags should have nil Layer")
	}
}

func TestAddSynapsePanics(t *testing.T) {
	var b GraphBuilder
	b.AddNeuron(-1)
	for _, c := range []struct{ from, to int }{{0, 1}, {1, 0}, {-1, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("AddSynapse(%d,%d) should panic", c.from, c.to)
				}
			}()
			b.AddSynapse(c.from, c.to, 1)
		}()
	}
}

func TestGraphValidateCatchesCorruption(t *testing.T) {
	var b GraphBuilder
	b.AddNeurons(2, -1)
	b.AddSynapse(0, 1, 1)
	g := b.Build()

	bad := *g
	bad.FanIn = []int32{0, 0}
	if bad.Validate() == nil {
		t.Error("inconsistent fan-in must fail validation")
	}
	bad = *g
	bad.OutTo = []int32{5}
	if bad.Validate() == nil {
		t.Error("out-of-range target must fail validation")
	}
	for _, w := range []float64{-1, math.NaN(), math.Inf(1)} {
		var b GraphBuilder
		b.AddNeurons(2, -1)
		b.AddSynapse(0, 1, w)
		if b.Build().Validate() == nil {
			t.Errorf("density %g must fail validation", w)
		}
	}
}

func TestRandomGraphDeterminism(t *testing.T) {
	cfg := RandomConfig{Neurons: 200, AvgDegree: 6, LocalityBand: 0.1, LongRangeFrac: 0.1, MaxDensity: 2}
	g1, err := RandomGraph(cfg, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	g2, err := RandomGraph(cfg, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	if g1.NumSynapses() != g2.NumSynapses() {
		t.Fatalf("same seed, different synapse counts: %d vs %d", g1.NumSynapses(), g2.NumSynapses())
	}
	for i := range g1.OutTo {
		if g1.OutTo[i] != g2.OutTo[i] || g1.OutW[i] != g2.OutW[i] {
			t.Fatal("same seed must give identical graphs")
		}
	}
	if err := g1.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRandomGraphLocality(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g, err := RandomGraph(RandomConfig{Neurons: 1000, AvgDegree: 10, LocalityBand: 0.05, LongRangeFrac: 0}, rng)
	if err != nil {
		t.Fatal(err)
	}
	// Every synapse must stay within the locality band (width 50), modulo
	// edge reflection.
	for i := 0; i < g.NumNeurons; i++ {
		tos, _ := g.OutEdges(i)
		for _, to := range tos {
			d := int(to) - i
			if d < 0 {
				d = -d
			}
			if d > 2*50 { // reflection can at most double the offset
				t.Fatalf("synapse %d->%d violates locality band", i, to)
			}
		}
	}
}

func TestRandomGraphProperties(t *testing.T) {
	f := func(seed int64, n uint16, deg uint8) bool {
		neurons := int(n%500) + 2
		cfg := RandomConfig{Neurons: neurons, AvgDegree: float64(deg % 8), LocalityBand: 0.2}
		g, err := RandomGraph(cfg, rand.New(rand.NewSource(seed)))
		if err != nil {
			return false
		}
		return g.Validate() == nil && g.NumNeurons == neurons
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestRandomGraphInvalidConfig(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := RandomGraph(RandomConfig{Neurons: 0}, rng); err == nil {
		t.Error("zero neurons must fail")
	}
	if _, err := RandomGraph(RandomConfig{Neurons: 5, AvgDegree: -1}, rng); err == nil {
		t.Error("negative degree must fail")
	}
}

func TestFullyConnected(t *testing.T) {
	g := FullyConnected(3, 4)
	if g.NumNeurons != 12 {
		t.Fatalf("neurons = %d", g.NumNeurons)
	}
	if g.NumSynapses() != 2*4*4 {
		t.Fatalf("synapses = %d, want 32", g.NumSynapses())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// Every neuron in layer 1 has fan-in 4 (from layer 0).
	for i := 4; i < 8; i++ {
		if g.FanIn[i] != 4 {
			t.Errorf("fan-in of %d = %d, want 4", i, g.FanIn[i])
		}
	}
	if g.Layer[0] != 0 || g.Layer[11] != 2 {
		t.Errorf("layer tags wrong: %v", g.Layer)
	}
}
