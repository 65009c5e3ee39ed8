// Custom hardware example: the same SNN partitioned and mapped under the
// per-core capacities of the real platforms in the paper's Table 1 —
// capacity planning for a workload across neuromorphic systems.
//
//	go run ./examples/customhw
package main

import (
	"fmt"
	"os"
	"text/tabwriter"

	"snnmap"
)

func main() {
	net := snnmap.LeNetImageNet()
	fmt.Printf("workload: %s — %d neurons, %d synapses\n\n",
		net.Name, net.NumNeurons(), net.NumSynapses())

	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Platform\tNeurons/core\tClusters\tMesh\tFits system?\tEnergy (norm. to default)")

	// Reference: the paper's Table 2 target hardware.
	refEnergy := mapAndScore(net, snnmap.DefaultConstraints(), tw, "paper target", true, 0)

	for _, platform := range snnmap.Platforms() {
		mapAndScore(net, platform.Constraints(), tw, platform.Name, platform.MaxNeurons() >= net.NumNeurons(), refEnergy)
	}
	tw.Flush()
	fmt.Println("\nSmaller cores mean more clusters and more interconnect traffic;")
	fmt.Println("the mapper keeps connected clusters adjacent regardless of core size.")
}

// mapAndScore partitions, maps and scores the net under the constraints,
// prints one table row, and returns the absolute energy.
func mapAndScore(net *snnmap.Net, cons snnmap.Constraints, tw *tabwriter.Writer, name string, fits bool, refEnergy float64) float64 {
	p, err := snnmap.Expand(net, snnmap.PartitionConfig{Constraints: cons})
	if err != nil {
		fatal(fmt.Errorf("%s: %w", name, err))
	}
	mesh := snnmap.MeshFor(p.NumClusters)
	res, err := snnmap.Map(p, mesh, snnmap.DefaultConfig())
	if err != nil {
		fatal(fmt.Errorf("%s: %w", name, err))
	}
	sum, err := snnmap.Evaluate(p, res.Placement, snnmap.DefaultCostModel(),
		snnmap.MetricOptions{Congestion: snnmap.CongestionSkip})
	if err != nil {
		fatal(fmt.Errorf("%s: %w", name, err))
	}
	fitsStr := "yes"
	if !fits {
		fitsStr = "no"
	}
	rel := 1.0
	if refEnergy > 0 {
		rel = sum.Energy / refEnergy
	}
	fmt.Fprintf(tw, "%s\t%d\t%d\t%v\t%s\t%.2f\n",
		name, cons.NeuronsPerCore, p.NumClusters, mesh, fitsStr, rel)
	return sum.Energy
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "customhw:", err)
	os.Exit(1)
}
