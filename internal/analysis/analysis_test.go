package analysis

import (
	"math/rand"
	"testing"

	"snnmap/internal/curve"
	"snnmap/internal/hw"
	"snnmap/internal/pcn"
	"snnmap/internal/snn"
)

func TestGraphCostHandChecked(t *testing.T) {
	// Chain of 4 neurons on a 2x2 ZigZag: positions (0,0),(0,1),(1,1),(1,0);
	// chain edges all distance 1 → cost = 3.
	var b snn.GraphBuilder
	b.AddNeurons(4, -1)
	b.AddSynapse(0, 1, 1)
	b.AddSynapse(1, 2, 1)
	b.AddSynapse(2, 3, 1)
	g := b.Build()
	cost, err := CurveCost(curve.ZigZag{}, g, g.NumNeurons, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if cost != 3 {
		t.Errorf("cost = %g, want 3", cost)
	}
	// Weights scale linearly.
	var b2 snn.GraphBuilder
	b2.AddNeurons(4, -1)
	b2.AddSynapse(0, 3, 2) // seq 0 → seq 3: distance 1, weight 2
	cost, err = CurveCost(curve.ZigZag{}, b2.Build(), 4, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if cost != 2 {
		t.Errorf("weighted cost = %g, want 2", cost)
	}
}

func TestGraphCostOverflow(t *testing.T) {
	var b snn.GraphBuilder
	b.AddNeurons(5, -1)
	if _, err := CurveCost(curve.Hilbert{}, b.Build(), 5, 2, 2); err == nil {
		t.Error("5 neurons on 4 cells must fail")
	}
}

// TestPCNCost: at cluster granularity the cost is the same sum over PCN
// edges — a 4-neuron chain at one neuron per core is a 4-cluster chain
// costing 3 on the 2x2 ZigZag, exactly as the neuron graph does.
func TestPCNCost(t *testing.T) {
	var b snn.GraphBuilder
	b.AddNeurons(4, -1)
	b.AddSynapse(0, 1, 1)
	b.AddSynapse(1, 2, 1)
	b.AddSynapse(2, 3, 1)
	res, err := pcn.Partition(b.Build(), pcn.PartitionConfig{Constraints: hw.Constraints{NeuronsPerCore: 1}})
	if err != nil {
		t.Fatal(err)
	}
	cost, err := CurveCost(curve.ZigZag{}, res.PCN, res.PCN.NumClusters, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if cost != 3 {
		t.Errorf("PCN cost = %g, want 3", cost)
	}
}

func TestCloudCostOrdersCurves(t *testing.T) {
	// The §4.3 result: averaged over random local SNNs, Hilbert < ZigZag <
	// Circle (paper: 1.0 / 2.63 / 6.33).
	rng := rand.New(rand.NewSource(1))
	curves := []curve.Curve{curve.Hilbert{}, curve.ZigZag{}, curve.Circle{}}
	costs, err := CloudCost(CloudConfig{Samples: 60}, curves, rng)
	if err != nil {
		t.Fatal(err)
	}
	norm, err := Normalize(costs, "hilbert")
	if err != nil {
		t.Fatal(err)
	}
	if norm["hilbert"] != 1 {
		t.Errorf("hilbert = %g, want 1", norm["hilbert"])
	}
	if !(norm["zigzag"] > 1.2) {
		t.Errorf("zigzag = %g, want clearly above hilbert", norm["zigzag"])
	}
	if !(norm["circle"] > norm["zigzag"]) {
		t.Errorf("circle = %g, zigzag = %g: paper order violated", norm["circle"], norm["zigzag"])
	}
}

func TestCloudCostDeterminism(t *testing.T) {
	curves := []curve.Curve{curve.Hilbert{}, curve.ZigZag{}}
	a, err := CloudCost(CloudConfig{Samples: 10}, curves, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	b, err := CloudCost(CloudConfig{Samples: 10}, curves, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	for k := range a {
		if a[k] != b[k] {
			t.Fatal("cloud cost must be deterministic per seed")
		}
	}
}

func TestNormalizeErrors(t *testing.T) {
	if _, err := Normalize(map[string]float64{"a": 1}, "b"); err == nil {
		t.Error("missing reference must fail")
	}
	if _, err := Normalize(map[string]float64{"a": 0}, "a"); err == nil {
		t.Error("zero reference must fail")
	}
}
