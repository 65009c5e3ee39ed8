// Quickstart: describe a small SNN, partition it, map it with the paper's
// approach (Hilbert curve + Force-Directed fine-tuning), and score the
// placement.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"os"

	"snnmap"
)

func main() {
	// Optional: a progress observer. Every pipeline config accepts one;
	// it renders live phase progress to stderr and never changes results.
	o := snnmap.NewObserver(snnmap.ObserverConfig{OnProgress: snnmap.ProgressRenderer(os.Stderr)})

	// 1. Describe the application: a 4-layer spiking MLP, 512 neurons per
	// layer, adjacent layers fully connected.
	net := snnmap.SynthDNN("my-mlp", 4, 512)
	fmt.Printf("application: %s — %d neurons, %d synapses\n",
		net.Name, net.NumNeurons(), net.NumSynapses())

	// 2. Partition into clusters that fit the target cores. We use a small
	// custom core here (128 neurons/core) so the mapping problem is
	// non-trivial even for this toy network.
	p, err := snnmap.Expand(net, snnmap.PartitionConfig{
		Constraints: snnmap.Constraints{NeuronsPerCore: 128},
		Obs:         o,
	})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("partitioned:  %d clusters, %d connections\n", p.NumClusters, p.NumEdges())

	// 3. Map onto the smallest square mesh that fits.
	mesh := snnmap.MeshFor(p.NumClusters)
	cfg := snnmap.DefaultConfig()
	cfg.Obs = o
	res, err := snnmap.Map(p, mesh, cfg)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("mapped onto %v in %v (%d FD iterations, %d swaps)\n",
		mesh, res.Elapsed, res.FD.Iterations, res.FD.Swaps)

	// 4. Score it against a random placement.
	cost := snnmap.DefaultCostModel()
	ours, err := snnmap.Evaluate(p, res.Placement, cost, snnmap.MetricOptions{})
	if err != nil {
		fatal(err)
	}
	rnd, _, err := snnmap.RandomPlacement(p, mesh, snnmap.BaselineOptions{Seed: 1})
	if err != nil {
		fatal(err)
	}
	base, err := snnmap.Evaluate(p, rnd, cost, snnmap.MetricOptions{})
	if err != nil {
		fatal(err)
	}
	n := ours.Normalize(base)
	fmt.Printf("vs random:    energy ×%.2f, avg latency ×%.2f, max congestion ×%.2f\n",
		n.Energy, n.AvgLatency, n.MaxCongestion)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "quickstart:", err)
	os.Exit(1)
}
