package snnmap_test

import (
	"fmt"

	"snnmap"
)

// ExampleMap shows the complete pipeline of the paper on a deterministic
// workload: partition, Hilbert+FD mapping, metric evaluation.
func ExampleMap() {
	net := snnmap.DNN65K() // 65 536 neurons, 4 fully connected layers
	p, err := snnmap.Expand(net, snnmap.DefaultPartition())
	if err != nil {
		panic(err)
	}
	mesh := snnmap.MeshFor(p.NumClusters)
	res, err := snnmap.Map(p, mesh, snnmap.DefaultConfig())
	if err != nil {
		panic(err)
	}
	fmt.Printf("%d clusters on %v, placement valid: %v\n",
		p.NumClusters, mesh, res.Placement.Validate() == nil)
	// Output:
	// 16 clusters on 4x4, placement valid: true
}

// ExamplePartition partitions an explicit neuron graph with Algorithm 1.
func ExamplePartition() {
	var b snnmap.GraphBuilder
	in := b.AddNeurons(6, 0)
	out := b.AddNeurons(3, 1)
	for i := 0; i < 6; i++ {
		for j := 0; j < 3; j++ {
			b.AddSynapse(in+i, out+j, 1)
		}
	}
	res, err := snnmap.Partition(b.Build(), snnmap.PartitionConfig{
		Constraints:   snnmap.Constraints{NeuronsPerCore: 3},
		SplitAtLayers: true,
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("%d clusters, %d connections, cut traffic %.0f\n",
		res.PCN.NumClusters, res.PCN.NumEdges(), res.PCN.TotalWeight())
	// Output:
	// 3 clusters, 2 connections, cut traffic 18
}

// ExampleEvaluate scores a placement on the paper's five metrics.
func ExampleEvaluate() {
	p, err := snnmap.Expand(snnmap.CNN65K(), snnmap.DefaultPartition())
	if err != nil {
		panic(err)
	}
	mesh := snnmap.MeshFor(p.NumClusters)
	res, err := snnmap.Map(p, mesh, snnmap.DefaultConfig())
	if err != nil {
		panic(err)
	}
	sum, err := snnmap.Evaluate(p, res.Placement, snnmap.DefaultCostModel(), snnmap.MetricOptions{})
	if err != nil {
		panic(err)
	}
	fmt.Printf("energy positive: %v, max latency >= avg: %v\n",
		sum.Energy > 0, sum.MaxLatency >= sum.AvgLatency)
	// Output:
	// energy positive: true, max latency >= avg: true
}

// ExampleMulticastEnergy compares unicast and multicast routing costs.
func ExampleMulticastEnergy() {
	p, err := snnmap.Expand(snnmap.DNN65K(), snnmap.DefaultPartition())
	if err != nil {
		panic(err)
	}
	mesh := snnmap.MeshFor(p.NumClusters)
	res, err := snnmap.Map(p, mesh, snnmap.DefaultConfig())
	if err != nil {
		panic(err)
	}
	mc := snnmap.MulticastEnergy(p, res.Placement, snnmap.DefaultCostModel())
	fmt.Printf("multicast never exceeds unicast: %v\n", mc.Energy <= mc.UnicastEnergy)
	// Output:
	// multicast never exceeds unicast: true
}

// ExampleApplyRates models depth-decaying spike activity.
func ExampleApplyRates() {
	net := snnmap.LeNetMNIST()
	if err := snnmap.ApplyRates(net, snnmap.DecayRate(1.0, 0.5)); err != nil {
		panic(err)
	}
	fmt.Printf("input rate %.2f, output rate %.4f\n",
		net.Layers[0].Rate, net.Layers[len(net.Layers)-1].Rate)
	// Output:
	// input rate 1.00, output rate 0.0078
}
