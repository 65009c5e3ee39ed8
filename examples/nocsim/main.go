// NoC simulation example: cross-validate the analytic metrics (Eqs. 9-12)
// against the spike-level network-on-chip simulator, and show how a better
// placement translates into real queueing behaviour, not just closed-form
// numbers.
//
//	go run ./examples/nocsim
package main

import (
	"fmt"
	"os"

	"snnmap"
)

func main() {
	// Live progress on stderr while the simulator runs; telemetry is
	// observe-only, so the simulated results are identical without it.
	o := snnmap.NewObserver(snnmap.ObserverConfig{OnProgress: snnmap.ProgressRenderer(os.Stderr)})

	net := snnmap.LeNetMNIST()
	p, err := snnmap.Expand(net, snnmap.DefaultPartition())
	if err != nil {
		fatal(err)
	}
	mesh := snnmap.MeshFor(p.NumClusters)
	cost := snnmap.DefaultCostModel()

	random, _, err := snnmap.RandomPlacement(p, mesh, snnmap.BaselineOptions{Seed: 3})
	if err != nil {
		fatal(err)
	}
	proposed, err := snnmap.Map(p, mesh, snnmap.DefaultConfig())
	if err != nil {
		fatal(err)
	}

	for _, c := range []struct {
		name string
		pl   *snnmap.Placement
	}{
		{"random placement", random},
		{"proposed placement", proposed.Placement},
	} {
		analytic, err := snnmap.Evaluate(p, c.pl, cost, snnmap.MetricOptions{})
		if err != nil {
			fatal(err)
		}
		// Scale traffic down so the simulation stays small; one simulated
		// spike per 100 units of traffic.
		sim, err := snnmap.Simulate(p, c.pl, snnmap.SimConfig{SpikesPerUnit: 0.01, Cost: cost, Obs: o})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s:\n", c.name)
		fmt.Printf("  analytic : energy=%.4g  avg latency=%.3f  max congestion=%.4g\n",
			analytic.Energy, analytic.AvgLatency, analytic.MaxCongestion)
		fmt.Printf("  simulated: energy=%.4g  avg latency=%.3f cycles  avg hops=%.3f  peak queue=%d  (%d spikes, %d cycles)\n",
			sim.Energy, sim.AvgLatencyCycles, sim.AvgHops, sim.MaxQueueLen, sim.Delivered, sim.Cycles)
		fmt.Printf("  transport: %d dropped (%d at setup, %d in network), %d detours\n\n",
			sim.Dropped, sim.Stats.SetupDrops, sim.Stats.NetworkDrops, sim.Stats.Detours)
	}
	fmt.Println("The simulated energy tracks Eq. 9 (scaled by spikes-per-unit), and the")
	fmt.Println("proposed placement reduces both the analytic metrics and the simulator's")
	fmt.Println("hop counts and queue occupancy. On a healthy mesh the transport line is")
	fmt.Println("all zeros; defect maps introduce setup drops (dead endpoints), network")
	fmt.Println("drops and fault-routing detours — see SimResult.Stats.")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "nocsim:", err)
	os.Exit(1)
}
