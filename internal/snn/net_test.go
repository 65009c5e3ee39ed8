package snn

import (
	"math"
	"testing"
)

func twoLayerNet() *Net {
	n := &Net{Name: "test"}
	n.Chain(Layer{Name: "in", Neurons: 10}, 0, Dense, 0)
	n.Chain(Layer{Name: "out", Neurons: 4}, 10, Dense, 0)
	return n
}

func TestNetTotals(t *testing.T) {
	n := twoLayerNet()
	if n.NumNeurons() != 14 {
		t.Errorf("neurons = %d, want 14", n.NumNeurons())
	}
	if n.NumSynapses() != 40 {
		t.Errorf("synapses = %d, want 40", n.NumSynapses())
	}
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestNetValidate(t *testing.T) {
	cases := []struct {
		name string
		net  *Net
	}{
		{"no layers", &Net{Name: "x"}},
		{"zero neurons", &Net{Name: "x", Layers: []Layer{{Neurons: 0}}}},
		{"negative rate", &Net{Name: "x", Layers: []Layer{{Neurons: 1, Rate: -1}}}},
		{"NaN rate", &Net{Name: "x", Layers: []Layer{{Neurons: 1, Rate: math.NaN()}}}},
		{"infinite rate", &Net{Name: "x", Layers: []Layer{{Neurons: 1, Rate: math.Inf(1)}}}},
		{"conn out of range", &Net{Name: "x", Layers: []Layer{{Neurons: 1}},
			Conns: []Conn{{From: 0, To: 3, FanIn: 1}}}},
		{"self loop", &Net{Name: "x", Layers: []Layer{{Neurons: 1}},
			Conns: []Conn{{From: 0, To: 0, FanIn: 1}}}},
		{"zero fanin", &Net{Name: "x", Layers: []Layer{{Neurons: 1}, {Neurons: 1}},
			Conns: []Conn{{From: 0, To: 1, FanIn: 0}}}},
		{"negative window", &Net{Name: "x", Layers: []Layer{{Neurons: 1}, {Neurons: 1}},
			Conns: []Conn{{From: 0, To: 1, FanIn: 1, Pattern: Local, Window: -2}}}},
	}
	for _, c := range cases {
		if err := c.net.Validate(); err == nil {
			t.Errorf("%s: expected validation error", c.name)
		}
	}
}

func TestRateOf(t *testing.T) {
	n := &Net{Layers: []Layer{{Neurons: 1}, {Neurons: 1, Rate: 2.5}}}
	if n.RateOf(0) != 1 {
		t.Error("unset rate must default to 1")
	}
	if n.RateOf(1) != 2.5 {
		t.Error("explicit rate ignored")
	}
}

func TestConnectAndChain(t *testing.T) {
	n := &Net{Name: "t"}
	a := n.Chain(Layer{Name: "a", Neurons: 5}, 0, Dense, 0)
	b := n.Chain(Layer{Name: "b", Neurons: 5}, 5, Dense, 0)
	c := n.Chain(Layer{Name: "c", Neurons: 5}, 5, Local, 2)
	n.Connect(a, c, 1, OneToOne, 0) // skip connection
	if len(n.Conns) != 3 {
		t.Fatalf("conns = %d, want 3", len(n.Conns))
	}
	if n.Conns[2].From != a || n.Conns[2].To != c || n.Conns[2].Pattern != OneToOne {
		t.Errorf("skip connection wrong: %+v", n.Conns[2])
	}
	_ = b
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestMaterializeCounts(t *testing.T) {
	n := twoLayerNet()
	g, err := n.Materialize(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if int64(g.NumNeurons) != n.NumNeurons() {
		t.Errorf("neurons %d, want %d", g.NumNeurons, n.NumNeurons())
	}
	if g.NumSynapses() != n.NumSynapses() {
		t.Errorf("synapses %d, want %d", g.NumSynapses(), n.NumSynapses())
	}
	// Layer tags must follow the spec layers.
	if g.Layer[0] != 0 || g.Layer[10] != 1 {
		t.Errorf("layer tags: %v", g.Layer)
	}
	// Dense: every target neuron draws from all 10 sources.
	for i := 10; i < 14; i++ {
		if g.FanIn[i] != 10 {
			t.Errorf("fan-in of %d = %d, want 10", i, g.FanIn[i])
		}
	}
}

func TestMaterializeCap(t *testing.T) {
	n := twoLayerNet()
	if _, err := n.Materialize(10); err == nil {
		t.Error("materialization above cap must fail")
	}
}

func TestMaterializeRates(t *testing.T) {
	n := &Net{Name: "r"}
	n.Chain(Layer{Name: "in", Neurons: 2, Rate: 3}, 0, Dense, 0)
	n.Chain(Layer{Name: "out", Neurons: 2}, 2, Dense, 0)
	g, err := n.Materialize(100)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range g.OutW {
		if w != 3 {
			t.Errorf("spike density %g, want source rate 3", w)
		}
	}
}

func TestMaterializeLocalFanIn(t *testing.T) {
	n := &Net{Name: "l"}
	n.Chain(Layer{Name: "in", Neurons: 100}, 0, Dense, 0)
	n.Chain(Layer{Name: "out", Neurons: 50}, 9, Local, 3)
	g, err := n.Materialize(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	for i := 100; i < 150; i++ {
		if g.FanIn[i] != 9 {
			t.Fatalf("fan-in of %d = %d, want 9", i, g.FanIn[i])
		}
	}
}

func TestPatternString(t *testing.T) {
	if Dense.String() != "dense" || Local.String() != "local" || OneToOne.String() != "one-to-one" {
		t.Error("pattern names wrong")
	}
	if Pattern(99).String() == "" {
		t.Error("unknown pattern should render")
	}
}
