// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (§5). Each benchmark regenerates the corresponding artifact's
// numbers; normalized results are attached as custom benchmark metrics so
// `go test -bench=. -benchmem` reproduces the evaluation's shape. The full
// text reports come from cmd/experiments.
package snnmap_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"snnmap/internal/analysis"
	"snnmap/internal/codec"
	"snnmap/internal/curve"
	"snnmap/internal/expt"
	"snnmap/internal/hw"
	"snnmap/internal/mapping"
	"snnmap/internal/metrics"
	"snnmap/internal/noc"
	"snnmap/internal/pcn"
)

// buildWorkload returns a Table 3 workload's PCN and mesh.
func buildWorkload(b *testing.B, name string) (*pcn.PCN, hw.Mesh) {
	wl, err := expt.WorkloadByName(name)
	if err != nil {
		b.Fatal(err)
	}
	p, mesh, err := wl.Build()
	if err != nil {
		b.Fatal(err)
	}
	return p, mesh
}

// benchBudget caps per-method wall-clock time inside benchmarks, standing in
// for the paper's 100-hour cap on a scale this machine can regenerate.
const benchBudget = 10 * time.Second

// BenchmarkTable1Presets regenerates Table 1: the platform capacity table.
func BenchmarkTable1Presets(b *testing.B) {
	for i := 0; i < b.N; i++ {
		total := int64(0)
		for _, p := range hw.Platforms() {
			total += p.MaxNeurons()
		}
		if total == 0 {
			b.Fatal("empty presets")
		}
	}
}

// BenchmarkTable3Workloads regenerates Table 3: partitioning each benchmark
// application into its PCN. Sub-benchmarks cover the tiers that finish in
// benchmark time; DNN_4B is exercised by cmd/experiments -scale full.
func BenchmarkTable3Workloads(b *testing.B) {
	for _, name := range []string{"DNN_65K", "CNN_65K", "LeNet-MNIST", "DNN_16M", "CNN_16M", "LeNet-ImageNet", "AlexNet", "MobileNet"} {
		wl, err := expt.WorkloadByName(name)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p, err := pcn.Expand(wl.Net(), pcn.DefaultPartition())
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(p.NumClusters), "clusters")
				b.ReportMetric(float64(p.NumEdges()), "connections")
			}
		})
	}
}

// BenchmarkFig6CurveCost regenerates Figure 6.e: the probability-cloud cost
// of each space-filling curve, normalized to Hilbert (paper: 1.0 / 2.63 /
// 6.33).
func BenchmarkFig6CurveCost(b *testing.B) {
	curves := []curve.Curve{curve.Hilbert{}, curve.ZigZag{}, curve.Circle{}}
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(1))
		costs, err := analysis.CloudCost(analysis.CloudConfig{Samples: 50}, curves, rng)
		if err != nil {
			b.Fatal(err)
		}
		norm, err := analysis.Normalize(costs, "hilbert")
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(norm["zigzag"], "zigzag-vs-hilbert")
		b.ReportMetric(norm["circle"], "circle-vs-hilbert")
	}
}

// fig8Workload is the application Figure 8's method comparison runs on in
// benchmark time (the paper uses ResNet; MobileNet has the same structure
// two sizes down — run `cmd/experiments -run fig8 -scale medium` for the
// full ResNet report).
const fig8Workload = "MobileNet"

// BenchmarkFig8Methods regenerates Figure 8: each method a)–j) mapping one
// workload, with normalized energy attached as a metric.
func BenchmarkFig8Methods(b *testing.B) {
	p, mesh := buildWorkload(b, fig8Workload)
	opts := expt.RunOptions{Seed: 1, Budget: benchBudget}
	basePl, _, err := expt.RandomMethod().Run(p, mesh, opts)
	if err != nil {
		b.Fatal(err)
	}
	base := metrics.Evaluate(p, basePl, hw.DefaultCostModel(), metrics.Options{Congestion: metrics.CongestionSkip})
	for _, m := range expt.Figure8Methods() {
		m := m
		b.Run(m.Name, func(b *testing.B) {
			var norm float64
			for i := 0; i < b.N; i++ {
				pl, _, err := m.Run(p, mesh, opts)
				if err != nil {
					b.Fatal(err)
				}
				s := metrics.Evaluate(p, pl, hw.DefaultCostModel(), metrics.Options{Congestion: metrics.CongestionSkip})
				norm = s.Normalize(base).Energy
			}
			b.ReportMetric(norm, "energy-vs-random")
		})
	}
}

// BenchmarkFig9SolveTime regenerates Figure 9: algorithm execution time of
// every comparison method as the cluster count grows. ns/op is the figure's
// Y axis; the sub-benchmark name encodes method and workload.
func BenchmarkFig9SolveTime(b *testing.B) {
	for _, wlName := range []string{"DNN_65K", "LeNet-ImageNet", "MobileNet", "CNN_16M", "DNN_16M"} {
		p, mesh := buildWorkload(b, wlName)
		for _, m := range expt.ComparisonMethods() {
			m := m
			b.Run(m.Name+"/"+wlName, func(b *testing.B) {
				early := false
				for i := 0; i < b.N; i++ {
					_, stats, err := m.Run(p, mesh, expt.RunOptions{Seed: 1, Budget: benchBudget})
					if err != nil {
						b.Fatal(err)
					}
					early = stats.EarlyStopped
				}
				if early {
					b.ReportMetric(1, "early-stop")
				}
				b.ReportMetric(float64(p.NumClusters), "clusters")
			})
		}
	}
}

// benchSweepMetric regenerates one of Figures 10-12: it maps each workload
// with each comparison method and reports the chosen metric normalized to
// Random.
func benchSweepMetric(b *testing.B, metric func(metrics.Summary) float64, unit string) {
	b.Helper()
	for _, wlName := range []string{"DNN_65K", "CNN_65K", "LeNet-ImageNet", "MobileNet"} {
		p, mesh := buildWorkload(b, wlName)
		opts := expt.RunOptions{Seed: 1, Budget: benchBudget}
		basePl, _, err := expt.RandomMethod().Run(p, mesh, opts)
		if err != nil {
			b.Fatal(err)
		}
		mopts := metrics.Options{}
		base := metrics.Evaluate(p, basePl, hw.DefaultCostModel(), mopts)
		for _, m := range expt.ComparisonMethods()[1:] {
			m := m
			b.Run(m.Name+"/"+wlName, func(b *testing.B) {
				var norm float64
				for i := 0; i < b.N; i++ {
					pl, _, err := m.Run(p, mesh, opts)
					if err != nil {
						b.Fatal(err)
					}
					s := metrics.Evaluate(p, pl, hw.DefaultCostModel(), mopts)
					norm = metric(s.Normalize(base))
				}
				b.ReportMetric(norm, unit)
			})
		}
	}
}

// BenchmarkFig10Energy regenerates Figure 10 (energy consumption).
func BenchmarkFig10Energy(b *testing.B) {
	benchSweepMetric(b, func(s metrics.Summary) float64 { return s.Energy }, "energy-vs-random")
}

// BenchmarkFig11Latency regenerates Figure 11 (average latency; the text
// report also carries the maximum).
func BenchmarkFig11Latency(b *testing.B) {
	benchSweepMetric(b, func(s metrics.Summary) float64 { return s.AvgLatency }, "avglat-vs-random")
}

// BenchmarkFig12Congestion regenerates Figure 12 (average congestion; the
// text report also carries the maximum).
func BenchmarkFig12Congestion(b *testing.B) {
	benchSweepMetric(b, func(s metrics.Summary) float64 { return s.AvgCongestion }, "avgcon-vs-random")
}

// BenchmarkFig13GeneralizedHilbert regenerates Appendix A / Figure 13:
// constructing the modified Hilbert curve on arbitrary rectangles.
func BenchmarkFig13GeneralizedHilbert(b *testing.B) {
	sizes := [][2]int{{16, 8}, {13, 19}, {16, 12}, {1024, 768}}
	for i := 0; i < b.N; i++ {
		for _, s := range sizes {
			pts := (curve.Hilbert{}).Points(s[0], s[1])
			if len(pts) != s[0]*s[1] {
				b.Fatal("bad curve")
			}
		}
	}
}

// BenchmarkHeadlineProposed regenerates the §5.3 headline measurement at
// benchmark scale: the proposed approach's end-to-end solve time on the
// largest workload that fits a benchmark run (DNN_16M: 4 096 clusters;
// DNN_4B is regenerated by `cmd/experiments -run headline -scale full`).
func BenchmarkHeadlineProposed(b *testing.B) {
	p, mesh := buildWorkload(b, "DNN_16M")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := mapping.Map(p, mesh, mapping.Default())
		if err != nil {
			b.Fatal(err)
		}
		if err := res.Placement.Validate(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationPotentials quantifies the §4.5 potential-function design
// choice: FD fine-tuning cost and quality per potential, from the same HSC
// start.
func BenchmarkAblationPotentials(b *testing.B) {
	p, mesh := buildWorkload(b, "LeNet-ImageNet")
	init, err := mapping.InitialPlacement(p, mesh, curve.Hilbert{})
	if err != nil {
		b.Fatal(err)
	}
	for _, name := range []string{"l1", "l1sq", "l2sq", "energy"} {
		pot, err := mapping.PotentialByName(name, hw.DefaultCostModel())
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			var reduction float64
			for i := 0; i < b.N; i++ {
				pl := init.Clone()
				st, err := mapping.Finetune(p, pl, mapping.FDConfig{Potential: pot})
				if err != nil {
					b.Fatal(err)
				}
				reduction = 1 - st.FinalEnergy/st.InitialEnergy
			}
			b.ReportMetric(100*reduction, "Es-reduction-%")
		})
	}
}

// BenchmarkAblationLambda quantifies the §4.5 λ design choice: swap-queue
// fraction vs convergence cost, from the same HSC start.
func BenchmarkAblationLambda(b *testing.B) {
	p, mesh := buildWorkload(b, "LeNet-ImageNet")
	init, err := mapping.InitialPlacement(p, mesh, curve.Hilbert{})
	if err != nil {
		b.Fatal(err)
	}
	for _, lambda := range []float64{0.05, 0.3, 1.0} {
		b.Run(fmt.Sprintf("lambda=%.2f", lambda), func(b *testing.B) {
			var iters float64
			for i := 0; i < b.N; i++ {
				pl := init.Clone()
				st, err := mapping.Finetune(p, pl, mapping.FDConfig{Potential: mapping.L2Sq{}, Lambda: lambda})
				if err != nil {
					b.Fatal(err)
				}
				iters = float64(st.Iterations)
			}
			b.ReportMetric(iters, "iterations")
		})
	}
}

// BenchmarkNoCSimulator measures the spike-level substrate's throughput on
// the LeNet-MNIST workload (used to cross-validate the analytic metrics).
func BenchmarkNoCSimulator(b *testing.B) {
	p, mesh := buildWorkload(b, "LeNet-MNIST")
	res, err := mapping.Map(p, mesh, mapping.Default())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim, err := noc.Simulate(p, res.Placement, noc.Config{SpikesPerUnit: 0.01})
		if err != nil {
			b.Fatal(err)
		}
		if sim.Delivered == 0 {
			b.Fatal("no spikes delivered")
		}
	}
}

// BenchmarkEvaluateMetrics measures the cost of the §3.3 metric computation
// itself (exact congestion) on a mid-size workload.
func BenchmarkEvaluateMetrics(b *testing.B) {
	p, mesh := buildWorkload(b, "LeNet-ImageNet")
	pl, err := mapping.InitialPlacement(p, mesh, curve.Random{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := metrics.Evaluate(p, pl, hw.DefaultCostModel(), metrics.Options{})
		if s.Energy <= 0 {
			b.Fatal("bad metrics")
		}
	}
}

// BenchmarkMulticastEnergy measures the multicast-extension evaluation on a
// mid-size workload.
func BenchmarkMulticastEnergy(b *testing.B) {
	p, mesh := buildWorkload(b, "LeNet-ImageNet")
	res, err := mapping.Map(p, mesh, mapping.Default())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var saving float64
	for i := 0; i < b.N; i++ {
		mc := metrics.MulticastEnergy(p, res.Placement, hw.DefaultCostModel())
		saving = mc.Saving()
	}
	b.ReportMetric(100*saving, "saving-%")
}

// BenchmarkCodecRoundTrip measures binary PCN persistence throughput.
func BenchmarkCodecRoundTrip(b *testing.B) {
	p, _ := buildWorkload(b, "CNN_16M")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := codec.WritePCN(&buf, p); err != nil {
			b.Fatal(err)
		}
		if _, err := codec.ReadPCN(&buf); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(buf.Cap()))
	}
}

// BenchmarkCases runs the benchmark case table cmd/bench records into
// BENCH_eval.json: kernels under the partitioner, FD, the snapshot codec,
// metrics and the congestion grid (see expt.BenchCases). -short runs the
// CI-sized smoke tier.
func BenchmarkCases(b *testing.B) {
	for _, c := range expt.BenchCases(testing.Short()) {
		b.Run(c.Op+"/"+c.Workload, c.Bench)
	}
}
