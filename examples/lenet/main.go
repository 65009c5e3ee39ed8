// LeNet example: map the paper's LeNet-MNIST workload with every evaluated
// approach and compare all five §3.3 metrics — a miniature Figure 8/10-12.
//
//	go run ./examples/lenet
package main

import (
	"fmt"
	"os"
	"text/tabwriter"
	"time"

	"snnmap"
)

func main() {
	net := snnmap.LeNetMNIST()
	p, err := snnmap.Expand(net, snnmap.DefaultPartition())
	if err != nil {
		fatal(err)
	}
	mesh := snnmap.MeshFor(p.NumClusters)
	fmt.Printf("%s: %d neurons / %d synapses → %d clusters on %v\n\n",
		net.Name, net.NumNeurons(), net.NumSynapses(), p.NumClusters, mesh)

	cost := snnmap.DefaultCostModel()
	type approach struct {
		name string
		run  func() (*snnmap.Placement, error)
	}
	opts := snnmap.BaselineOptions{Seed: 7, Budget: 30 * time.Second}
	approaches := []approach{
		{"Random", func() (*snnmap.Placement, error) {
			pl, _, err := snnmap.RandomPlacement(p, mesh, opts)
			return pl, err
		}},
		{"TrueNorth", func() (*snnmap.Placement, error) {
			pl, _, err := snnmap.TrueNorthPlacement(p, mesh, opts)
			return pl, err
		}},
		{"DFSynthesizer", func() (*snnmap.Placement, error) {
			pl, _, err := snnmap.DFSynthesizerPlacement(p, mesh, opts)
			return pl, err
		}},
		{"PSO", func() (*snnmap.Placement, error) {
			pl, _, err := snnmap.PSOPlacement(p, mesh, opts)
			return pl, err
		}},
		{"HSC only", func() (*snnmap.Placement, error) {
			return snnmap.InitialPlacement(p, mesh, snnmap.Hilbert{})
		}},
		{"HSC+FD (proposed)", func() (*snnmap.Placement, error) {
			res, err := snnmap.Map(p, mesh, snnmap.DefaultConfig())
			if err != nil {
				return nil, err
			}
			return res.Placement, nil
		}},
	}

	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Approach\tEnergy\tAvgLat\tMaxLat\tAvgCon\tMaxCon\tTime")
	var base snnmap.Summary
	for i, a := range approaches {
		start := time.Now()
		pl, err := a.run()
		if err != nil {
			fatal(fmt.Errorf("%s: %w", a.name, err))
		}
		elapsed := time.Since(start)
		sum, err := snnmap.Evaluate(p, pl, cost, snnmap.MetricOptions{})
		if err != nil {
			fatal(fmt.Errorf("%s: %w", a.name, err))
		}
		if i == 0 {
			base = sum
		}
		n := sum.Normalize(base)
		fmt.Fprintf(tw, "%s\t%.3f\t%.3f\t%.3f\t%.3f\t%.3f\t%v\n",
			a.name, n.Energy, n.AvgLatency, n.MaxLatency, n.AvgCongestion, n.MaxCongestion, elapsed.Round(time.Microsecond))
	}
	tw.Flush()
	fmt.Println("\n(metrics normalized to Random; lower is better)")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "lenet:", err)
	os.Exit(1)
}
