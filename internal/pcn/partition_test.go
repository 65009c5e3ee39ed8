package pcn

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"snnmap/internal/hw"
	"snnmap/internal/place"
	"snnmap/internal/snn"
)

func TestPartitionByNeuronLimit(t *testing.T) {
	// 10 neurons, CON_npc = 3 → clusters of 3,3,3,1 (Algorithm 1 walks in
	// index order and splits only at the capacity boundary).
	var b snn.GraphBuilder
	b.AddNeurons(10, -1)
	g := b.Build()
	res, err := Partition(g, PartitionConfig{Constraints: hw.Constraints{NeuronsPerCore: 3}})
	if err != nil {
		t.Fatal(err)
	}
	p := res.PCN
	if p.NumClusters != 4 {
		t.Fatalf("clusters = %d, want 4", p.NumClusters)
	}
	wantSizes := []int32{3, 3, 3, 1}
	for i, w := range wantSizes {
		if p.Neurons[i] != w {
			t.Errorf("cluster %d size %d, want %d", i, p.Neurons[i], w)
		}
	}
	for i, c := range res.ClusterOf {
		if int(c) != i/3 {
			t.Errorf("neuron %d in cluster %d, want %d", i, c, i/3)
		}
	}
}

func TestPartitionEdgeWeights(t *testing.T) {
	// Two layers of 2 neurons fully connected with density 1; CON_npc=2 →
	// cluster 0 = layer 0, cluster 1 = layer 1; w_P(e_01) = 4 (Eq. 5).
	g := snn.FullyConnected(2, 2)
	res, err := Partition(g, PartitionConfig{Constraints: hw.Constraints{NeuronsPerCore: 2}})
	if err != nil {
		t.Fatal(err)
	}
	p := res.PCN
	if p.NumClusters != 2 {
		t.Fatalf("clusters = %d, want 2", p.NumClusters)
	}
	tos, ws := p.OutEdges(0)
	if len(tos) != 1 || tos[0] != 1 || ws[0] != 4 {
		t.Fatalf("edge 0→1: %v %v, want weight 4", tos, ws)
	}
	if p.InternalTraffic != 0 {
		t.Errorf("internal traffic = %g, want 0", p.InternalTraffic)
	}
}

func TestPartitionInternalTraffic(t *testing.T) {
	// Both endpoints in one cluster: the synapse never enters the mesh.
	var b snn.GraphBuilder
	b.AddNeurons(4, -1)
	b.AddSynapse(0, 1, 5)
	b.AddSynapse(2, 3, 7)
	g := b.Build()
	res, err := Partition(g, PartitionConfig{Constraints: hw.Constraints{NeuronsPerCore: 4}})
	if err != nil {
		t.Fatal(err)
	}
	if res.PCN.NumClusters != 1 {
		t.Fatalf("clusters = %d, want 1", res.PCN.NumClusters)
	}
	if res.PCN.NumEdges() != 0 || res.PCN.InternalTraffic != 12 {
		t.Errorf("edges %d internal %g, want 0 and 12", res.PCN.NumEdges(), res.PCN.InternalTraffic)
	}
}

func TestPartitionSynapseLimit(t *testing.T) {
	// Each layer-1 neuron has fan-in 4; CON_spc=8 admits only 2 per
	// cluster when enforcement is on.
	g := snn.FullyConnected(2, 4)
	cfg := PartitionConfig{
		Constraints:     hw.Constraints{NeuronsPerCore: 100, SynapsesPerCore: 8},
		EnforceSynapses: true,
	}
	res, err := Partition(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := res.PCN
	// Layer 0 (fan-in 0) fits in one cluster of 4? No: SplitAtLayers is
	// off, so the walk packs layer-0 neurons (no synapses) with layer-1
	// neurons until the synapse budget runs out.
	for i := 0; i < p.NumClusters; i++ {
		if p.Synapses[i] > 8 {
			t.Errorf("cluster %d has %d synapses, cap 8", i, p.Synapses[i])
		}
	}
}

func TestPartitionSplitAtLayers(t *testing.T) {
	g := snn.FullyConnected(3, 2) // 3 layers × 2 neurons
	res, err := Partition(g, PartitionConfig{
		Constraints:   hw.Constraints{NeuronsPerCore: 100},
		SplitAtLayers: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	p := res.PCN
	if p.NumClusters != 3 {
		t.Fatalf("clusters = %d, want 3 (one per layer)", p.NumClusters)
	}
	for i := 0; i < 3; i++ {
		if p.Layer[i] != int32(i) || p.Neurons[i] != 2 {
			t.Errorf("cluster %d: layer %d size %d", i, p.Layer[i], p.Neurons[i])
		}
	}
}

func TestPartitionOversizedNeuronAdmitted(t *testing.T) {
	// A single neuron whose fan-in alone exceeds CON_spc must still land in
	// a cluster (it cannot be split).
	var b snn.GraphBuilder
	b.AddNeurons(3, -1)
	b.AddSynapse(0, 2, 1)
	b.AddSynapse(1, 2, 1)
	g := b.Build()
	res, err := Partition(g, PartitionConfig{
		Constraints:     hw.Constraints{NeuronsPerCore: 1, SynapsesPerCore: 1},
		EnforceSynapses: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.PCN.NumClusters != 3 {
		t.Fatalf("clusters = %d, want 3", res.PCN.NumClusters)
	}
	if res.PCN.Synapses[2] != 2 {
		t.Errorf("oversized neuron's cluster has %d synapses", res.PCN.Synapses[2])
	}
}

func TestPartitionRejectsBadConfig(t *testing.T) {
	g := snn.FullyConnected(2, 2)
	if _, err := Partition(g, PartitionConfig{}); err == nil {
		t.Error("zero CON_npc must fail")
	}
}

func TestPartitionMatchesExpand(t *testing.T) {
	// The analytic expander must produce the same cluster structure as
	// Algorithm 1 on the materialized graph (per-layer partitioning).
	net := snn.LeNetMNIST()
	g, err := net.Materialize(1 << 21)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultPartition()
	fromGraph, err := Partition(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	fromNet, err := Expand(net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if fromGraph.PCN.NumClusters != fromNet.NumClusters {
		t.Fatalf("cluster count: graph %d, net %d", fromGraph.PCN.NumClusters, fromNet.NumClusters)
	}
	for i := 0; i < fromNet.NumClusters; i++ {
		if fromGraph.PCN.Neurons[i] != fromNet.Neurons[i] {
			t.Errorf("cluster %d: graph %d neurons, net %d", i, fromGraph.PCN.Neurons[i], fromNet.Neurons[i])
		}
		if fromGraph.PCN.Layer[i] != fromNet.Layer[i] {
			t.Errorf("cluster %d: graph layer %d, net layer %d", i, fromGraph.PCN.Layer[i], fromNet.Layer[i])
		}
	}
	// Total traffic must be conserved between the two constructions:
	// inter-cluster plus internal equals the materialized synapse count
	// (unit densities).
	gotTotal := fromGraph.PCN.TotalWeight() + fromGraph.PCN.InternalTraffic
	if gotTotal != float64(g.NumSynapses()) {
		t.Errorf("graph traffic %g, want %d", gotTotal, g.NumSynapses())
	}
}

// TestPartitionersRejectInvalidGraph pins Partition's one input check: an
// out-of-range target, a negative weight and a FanIn that disagrees with the
// edges all fail with "pcn: invalid input graph".
func TestPartitionersRejectInvalidGraph(t *testing.T) {
	for _, tc := range []struct {
		name    string
		corrupt func(g *snn.Graph)
	}{
		{"out-of-range target", func(g *snn.Graph) { g.OutTo[0] = int32(g.NumNeurons) }},
		{"negative weight", func(g *snn.Graph) { g.OutW[1] = -1 }},
		{"NaN weight", func(g *snn.Graph) { g.OutW[1] = math.NaN() }},
		{"+Inf weight", func(g *snn.Graph) { g.OutW[1] = math.Inf(1) }},
		{"bad FanIn", func(g *snn.Graph) { g.FanIn[g.NumNeurons-1]++ }},
	} {
		g := snn.FullyConnected(3, 4)
		tc.corrupt(g)
		cfg := PartitionConfig{Constraints: hw.Constraints{NeuronsPerCore: 4}}
		if _, err := Partition(g, cfg); !errors.Is(err, place.ErrBadConfig) || !strings.Contains(err.Error(), "pcn: invalid input graph") {
			t.Errorf("%s: Partition returned %v, want a \"pcn: invalid input graph\" ErrBadConfig", tc.name, err)
		}
	}
}

// TestPartitionMultilevelIsPartition pins the shim: PartitionMultilevel with
// Multilevel set returns exactly Partition's result and the stats of one
// level, and Partition ignores Multilevel.
func TestPartitionMultilevelIsPartition(t *testing.T) {
	g, err := snn.RandomGraph(snn.RandomConfig{
		Neurons: 5000, AvgDegree: 8, LocalityBand: 0.02, LongRangeFrac: 0.1, MaxDensity: 1,
	}, rand.New(rand.NewSource(11)))
	if err != nil {
		t.Fatal(err)
	}
	cfg := PartitionConfig{Constraints: hw.Constraints{NeuronsPerCore: 32}, Workers: 2}
	want, err := Partition(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Multilevel = &MultilevelOptions{Workers: 4}
	flat, err := Partition(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(flat, want) {
		t.Error("Partition with Multilevel set differs from Partition without it")
	}
	got, stats, err := PartitionMultilevel(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("PartitionMultilevel differs from Partition")
	}
	cut := want.PCN.TotalWeight()
	wantStats := MultilevelStats{Levels: 1, FineVertices: want.PCN.NumClusters, FineEdges: want.PCN.NumEdges(),
		CoarsestVertices: want.PCN.NumClusters, CutFlat: cut, CutMultilevel: cut, UsedFlat: true}
	if cut <= 0 || stats != wantStats {
		t.Errorf("stats = %+v, want %+v", stats, wantStats)
	}
}
