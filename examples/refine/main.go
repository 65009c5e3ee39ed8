// Refinement example: the partition-optimization substrate. Most prior
// mapping work (SpiNeMap, PSOPART — §2.2 of the paper) minimizes
// inter-cluster traffic before placing anything. This example builds an SNN
// whose neuron ordering hides its community structure, shows how much
// traffic Algorithm 1's sequential partition leaves on the interconnect,
// recovers it with KL-style refinement, and measures the end-to-end effect
// on the mapped placement. It also shows spike-rate profiles reshaping the
// traffic that the mapper optimizes.
//
//	go run ./examples/refine
package main

import (
	"fmt"
	"math/rand"
	"os"

	"snnmap"
)

func main() {
	// An SNN with 8 tightly connected communities of 512 neurons whose
	// neuron indices interleave the communities — the worst case for a
	// sequential partitioner.
	const (
		communities = 8
		size        = 512
	)
	rng := rand.New(rand.NewSource(1))
	var b snnmap.GraphBuilder
	b.AddNeurons(communities*size, -1)
	member := func(comm, k int) int { return k*communities + comm }
	for comm := 0; comm < communities; comm++ {
		for e := 0; e < size*8; e++ {
			u := member(comm, rng.Intn(size))
			v := member(comm, rng.Intn(size))
			if u != v {
				b.AddSynapse(u, v, 1)
			}
		}
	}
	g := b.Build()

	cfg := snnmap.PartitionConfig{Constraints: snnmap.Constraints{NeuronsPerCore: size}}
	initial, err := snnmap.Partition(g, cfg)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("sequential partition: %d clusters, cut traffic %.0f (internal %.0f)\n",
		initial.PCN.NumClusters, initial.PCN.TotalWeight(), initial.PCN.InternalTraffic)

	refined, stats, err := snnmap.RefinePartition(g, initial, cfg)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("after KL refinement:  cut %.0f → %.0f (−%.1f%%) in %d passes, %d moves\n",
		stats.CutBefore, stats.CutAfter, 100*(1-stats.CutAfter/stats.CutBefore), stats.Passes, stats.Moves)

	// The cut reduction carries straight through to the mapped hardware.
	cost := snnmap.DefaultCostModel()
	for _, c := range []struct {
		name string
		pcn  *snnmap.PCN
	}{{"unrefined", initial.PCN}, {"refined", refined.PCN}} {
		mesh := snnmap.MeshFor(c.pcn.NumClusters)
		res, err := snnmap.Map(c.pcn, mesh, snnmap.DefaultConfig())
		if err != nil {
			fatal(err)
		}
		sum, err := snnmap.Evaluate(c.pcn, res.Placement, cost, snnmap.MetricOptions{})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("mapped %-10s energy=%.4g avgLat=%.3f maxCon=%.4g\n", c.name+":", sum.Energy, sum.AvgLatency, sum.MaxCongestion)
	}

	// Spike-rate profiles: depth-decaying activity reshapes the traffic the
	// mapper sees, concentrating optimization effort on the early layers.
	fmt.Println()
	net := snnmap.LeNetMNIST()
	for _, prof := range []struct {
		name string
		p    snnmap.RateProfile
	}{
		{"uniform rate 1.0", snnmap.UniformRate(1)},
		{"decay ×0.6/layer", snnmap.DecayRate(1, 0.6)},
	} {
		if err := snnmap.ApplyRates(net, prof.p); err != nil {
			fatal(err)
		}
		p, err := snnmap.Expand(net, snnmap.DefaultPartition())
		if err != nil {
			fatal(err)
		}
		mesh := snnmap.MeshFor(p.NumClusters)
		res, err := snnmap.Map(p, mesh, snnmap.DefaultConfig())
		if err != nil {
			fatal(err)
		}
		sum, err := snnmap.Evaluate(p, res.Placement, cost, snnmap.MetricOptions{})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("LeNet-MNIST with %-18s total traffic %.4g, mapped energy %.4g\n",
			prof.name+":", p.TotalWeight(), sum.Energy)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "refine:", err)
	os.Exit(1)
}
