package noc_test

import (
	"math"
	"testing"

	"snnmap/internal/curve"
	"snnmap/internal/hw"
	"snnmap/internal/mapping"
	"snnmap/internal/noc"
	"snnmap/internal/pcn"
	"snnmap/internal/snn"
)

// BenchmarkSimulateResNet times the simulation the benchmark's resnet_noc
// workload runs: ResNet expanded, placed along the Hilbert curve on the
// smallest square mesh, fine-tuned by FD, and simulated at 2e-4 spikes per
// unit (2.2 M spikes). Mapping runs once, outside the timer. ns/traversal is
// host time per router traversal, the benchmark's noc.host_ns_per_traversal.
func BenchmarkSimulateResNet(b *testing.B) {
	p, err := pcn.Expand(snn.ResNet(), pcn.DefaultPartition())
	if err != nil {
		b.Fatal(err)
	}
	side := int(math.Ceil(math.Sqrt(float64(p.NumClusters))))
	pl, err := mapping.InitialPlacement(p, hw.MustMesh(side, side), curve.Hilbert{})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := mapping.Finetune(p, pl, mapping.FDConfig{Potential: mapping.L2Sq{}}); err != nil {
		b.Fatal(err)
	}
	cfg := noc.Config{SpikesPerUnit: 2e-4}
	b.ReportAllocs()
	b.ResetTimer()
	var traversals int64
	for i := 0; i < b.N; i++ {
		res, err := noc.Simulate(p, pl, cfg)
		if err != nil {
			b.Fatal(err)
		}
		traversals = 0
		for _, n := range res.RouterTraversals {
			traversals += n
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(traversals), "ns/traversal")
}
