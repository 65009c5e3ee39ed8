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
	"snnmap/internal/baseline"
	"snnmap/internal/codec"
	"snnmap/internal/curve"
	"snnmap/internal/expt"
	"snnmap/internal/hw"
	"snnmap/internal/mapping"
	"snnmap/internal/metrics"
	"snnmap/internal/noc"
	"snnmap/internal/pcn"
	"snnmap/internal/place"
	"snnmap/internal/snn"
)

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
	wl, err := expt.WorkloadByName(fig8Workload)
	if err != nil {
		b.Fatal(err)
	}
	p, mesh, err := wl.Build()
	if err != nil {
		b.Fatal(err)
	}
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
		wl, err := expt.WorkloadByName(wlName)
		if err != nil {
			b.Fatal(err)
		}
		p, mesh, err := wl.Build()
		if err != nil {
			b.Fatal(err)
		}
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
		wl, err := expt.WorkloadByName(wlName)
		if err != nil {
			b.Fatal(err)
		}
		p, mesh, err := wl.Build()
		if err != nil {
			b.Fatal(err)
		}
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
	wl, err := expt.WorkloadByName("DNN_16M")
	if err != nil {
		b.Fatal(err)
	}
	p, mesh, err := wl.Build()
	if err != nil {
		b.Fatal(err)
	}
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
	wl, err := expt.WorkloadByName("LeNet-ImageNet")
	if err != nil {
		b.Fatal(err)
	}
	p, mesh, err := wl.Build()
	if err != nil {
		b.Fatal(err)
	}
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
	wl, err := expt.WorkloadByName("LeNet-ImageNet")
	if err != nil {
		b.Fatal(err)
	}
	p, mesh, err := wl.Build()
	if err != nil {
		b.Fatal(err)
	}
	init, err := mapping.InitialPlacement(p, mesh, curve.Hilbert{})
	if err != nil {
		b.Fatal(err)
	}
	for _, lambda := range []float64{0.05, 0.3, 1.0} {
		b.Run(lambdaName(lambda), func(b *testing.B) {
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

func lambdaName(l float64) string {
	switch l {
	case 0.05:
		return "lambda=0.05"
	case 0.3:
		return "lambda=0.30"
	default:
		return "lambda=1.00"
	}
}

// BenchmarkNoCSimulator measures the spike-level substrate's throughput on
// the LeNet-MNIST workload (used to cross-validate the analytic metrics).
func BenchmarkNoCSimulator(b *testing.B) {
	wl, err := expt.WorkloadByName("LeNet-MNIST")
	if err != nil {
		b.Fatal(err)
	}
	p, mesh, err := wl.Build()
	if err != nil {
		b.Fatal(err)
	}
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
	wl, err := expt.WorkloadByName("LeNet-ImageNet")
	if err != nil {
		b.Fatal(err)
	}
	p, mesh, err := wl.Build()
	if err != nil {
		b.Fatal(err)
	}
	pl, _, err := baseline.Random(p, mesh, baseline.Options{Seed: 1})
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
	wl, err := expt.WorkloadByName("LeNet-ImageNet")
	if err != nil {
		b.Fatal(err)
	}
	p, mesh, err := wl.Build()
	if err != nil {
		b.Fatal(err)
	}
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
	wl, err := expt.WorkloadByName("CNN_16M")
	if err != nil {
		b.Fatal(err)
	}
	p, _, err := wl.Build()
	if err != nil {
		b.Fatal(err)
	}
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

// BenchmarkRefinePartition measures the KL refinement substrate on a
// community-structured graph.
func BenchmarkRefinePartition(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	var gb snn.GraphBuilder
	const communities, size = 8, 128
	gb.AddNeurons(communities*size, -1)
	for comm := 0; comm < communities; comm++ {
		for e := 0; e < size*6; e++ {
			u := rng.Intn(size)*communities + comm
			v := rng.Intn(size)*communities + comm
			if u != v {
				gb.AddSynapse(u, v, 1)
			}
		}
	}
	g := gb.Build()
	cfg := pcn.PartitionConfig{Constraints: hw.Constraints{NeuronsPerCore: size}}
	initial, err := pcn.Partition(g, cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var reduction float64
	for i := 0; i < b.N; i++ {
		_, stats, err := pcn.RefinePartition(g, initial, pcn.RefineConfig{Config: cfg})
		if err != nil {
			b.Fatal(err)
		}
		reduction = 1 - stats.CutAfter/stats.CutBefore
	}
	b.ReportMetric(100*reduction, "cut-reduction-%")
}

// BenchmarkAggregate measures the edge-aggregation kernels under multilevel
// partitioning on the 131k partition workload — the flat CSR build, the fine
// undirected build and the first contraction, all through pcn's one mergeRow.
// cmd/bench mirrors them as pcn-aggregate/* records.
func BenchmarkAggregate(b *testing.B) {
	g := expt.PartitionGraph(131_072)
	kernels, err := pcn.AggregateKernels(g, pcn.PartitionConfig{Constraints: hw.Constraints{NeuronsPerCore: 128}})
	if err != nil {
		b.Fatal(err)
	}
	for _, k := range kernels {
		b.Run(k.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				k.Run()
			}
		})
	}
}

// BenchmarkNoCRouting compares simulator throughput across routing
// algorithms on a contended workload.
func BenchmarkNoCRouting(b *testing.B) {
	wl, err := expt.WorkloadByName("LeNet-MNIST")
	if err != nil {
		b.Fatal(err)
	}
	p, mesh, err := wl.Build()
	if err != nil {
		b.Fatal(err)
	}
	pl, _, err := baseline.Random(p, mesh, baseline.Options{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	for _, routing := range []noc.Routing{noc.RouteXY, noc.RouteYX, noc.RouteO1Turn} {
		routing := routing
		b.Run(routing.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := noc.Simulate(p, pl, noc.Config{SpikesPerUnit: 0.01, Routing: routing})
				if err != nil {
					b.Fatal(err)
				}
				if res.Delivered == 0 {
					b.Fatal("no delivery")
				}
			}
		})
	}
}

// BenchmarkFDWorkers measures how FD's parallel build phases (energy,
// forces, initial queue) scale on a larger instance; the sweep after them is
// sequential at every worker count. The full-sort oracle is the baseline.
func BenchmarkFDWorkers(b *testing.B) {
	wl, err := expt.WorkloadByName("DNN_16M")
	if err != nil {
		b.Fatal(err)
	}
	p, mesh, err := wl.Build()
	if err != nil {
		b.Fatal(err)
	}
	run := func(name string, cfg mapping.FDConfig) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				pl, err := mapping.InitialPlacement(p, mesh, curve.Hilbert{})
				if err != nil {
					b.Fatal(err)
				}
				cfg.Potential = mapping.L2Sq{}
				if _, err := mapping.Finetune(p, pl, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	run("fullsort", mapping.FDConfig{Workers: 1, FullSort: true})
	for _, workers := range []int{1, 2, 4} {
		run(fmt.Sprintf("workers=%d", workers), mapping.FDConfig{Workers: workers})
	}
}

// BenchmarkFDSweep is the sweep-bound record beside the build-bound
// BenchmarkFDWorkers: CNN_16M's sparse PCN makes the O(E) build a few
// percent and leaves the swap kernel and the queue rebuild, reported per
// executed swap. benchmark/'s mapping.fd_sweep_s on cnn268m is the tracked
// end-to-end number.
func BenchmarkFDSweep(b *testing.B) {
	wl, err := expt.WorkloadByName("CNN_16M")
	if err != nil {
		b.Fatal(err)
	}
	p, mesh, err := wl.Build()
	if err != nil {
		b.Fatal(err)
	}
	init, err := mapping.InitialPlacement(p, mesh, curve.Hilbert{})
	if err != nil {
		b.Fatal(err)
	}
	p.Symmetric() // built once, outside the timed region
	var swaps int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		pl := init.Clone()
		b.StartTimer()
		stats, err := mapping.Finetune(p, pl, mapping.FDConfig{Potential: mapping.L2Sq{}})
		if err != nil {
			b.Fatal(err)
		}
		if !stats.Converged || stats.Swaps == 0 {
			b.Fatalf("converged=%v after %d swaps", stats.Converged, stats.Swaps)
		}
		swaps += stats.Swaps
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(swaps), "ns/swap")
}

// Kernel benchmarks under the DNN_268M headline stages (65 536 clusters,
// 4.19 M edges on 256×256): FD's O(E) build, the adjacency it walks, and
// evaluate's congestion-grid stamping. cmd/bench mirrors them as
// fd-build/*, pcn-adjacency/* and congestion-grid/* records.

// dnn268m builds the DNN_268M PCN and mesh.
func dnn268m(b *testing.B) (*pcn.PCN, hw.Mesh) {
	wl, err := expt.WorkloadByName("DNN_268M")
	if err != nil {
		b.Fatal(err)
	}
	p, mesh, err := wl.Build()
	if err != nil {
		b.Fatal(err)
	}
	return p, mesh
}

// uncachedPCN returns a PCN sharing p's arrays but none of its lazily built
// adjacency views, so a benchmark iteration pays for the build.
func uncachedPCN(p *pcn.PCN) *pcn.PCN {
	return &pcn.PCN{
		Name: p.Name, NumClusters: p.NumClusters,
		Neurons: p.Neurons, Synapses: p.Synapses, Layer: p.Layer,
		OutOff: p.OutOff, OutTo: p.OutTo, OutW: p.OutW,
		InternalTraffic: p.InternalTraffic,
	}
}

// BenchmarkFDBuild measures one Finetune sweep from the HSC placement —
// energy accounting, the force build and the initial queue, plus 1/55 of
// the sweeping — with the adjacency built inside the timed call (cold, what
// a mapping run pays) and already cached on the PCN (warm).
func BenchmarkFDBuild(b *testing.B) {
	p, mesh := dnn268m(b)
	init, err := mapping.InitialPlacement(p, mesh, curve.Hilbert{})
	if err != nil {
		b.Fatal(err)
	}
	for _, warm := range []bool{false, true} {
		name := "adjacency=cold"
		if warm {
			name = "adjacency=warm"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				q, pl := p, init.Clone()
				if !warm {
					q = uncachedPCN(p)
				}
				b.StartTimer()
				if _, err := mapping.Finetune(q, pl, mapping.FDConfig{Potential: mapping.L2Sq{}, MaxIterations: 1}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTranspose measures building the in-edge CSR FD walks.
func BenchmarkTranspose(b *testing.B) {
	p, _ := dnn268m(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		uncachedPCN(p).Symmetric()
	}
}

// BenchmarkUndirected measures materializing the symmetrized copy the
// partitioner and the baselines use.
func BenchmarkUndirected(b *testing.B) {
	p, _ := dnn268m(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		uncachedPCN(p).Undirected()
	}
}

// BenchmarkCongestionGrid measures the congestion grid on DNN_268M: exact
// on the fine-tuned placement (one sweep per target quadrant over clustered
// sources), long-edges on a 258×256 mesh after row 0 failed and RemapRows
// shifted it to the spare rows (its targets' union boxes span the mesh), and
// sampled at the stride Evaluate derives from Options.SampleEdges (one edge
// in 21, each its own one-source sweep).
func BenchmarkCongestionGrid(b *testing.B) {
	p, mesh := dnn268m(b)
	res, err := mapping.Map(p, mesh, mapping.Default())
	if err != nil {
		b.Fatal(err)
	}
	shifted, err := rowShifted(p, mesh)
	if err != nil {
		b.Fatal(err)
	}
	sampleEdges := metrics.Options{}.Resolved().SampleEdges
	stride := (int(p.NumEdges()) + sampleEdges - 1) / sampleEdges
	for _, bc := range []struct {
		name   string
		pl     *place.Placement
		stride int
	}{{"exact", res.Placement, 1}, {"long-edges", shifted, 1}, {"sampled", res.Placement, stride}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				metrics.CongestionGrid(p, bc.pl, bc.stride, 1)
			}
		})
	}
}

// rowShifted places p by HSC+FD on mesh grown by two spare rows, fails row
// 0 and repairs it with RemapRows.
func rowShifted(p *pcn.PCN, mesh hw.Mesh) (*place.Placement, error) {
	mesh = hw.MustMesh(mesh.Rows+2, mesh.Cols)
	cons := hw.Constraints{SpareRows: 2}
	pl, err := mapping.InitialPlacementWorkers(p, mesh, curve.Hilbert{}, nil, cons, 1)
	if err != nil {
		return nil, err
	}
	if _, err := mapping.Finetune(p, pl, mapping.FDConfig{Potential: mapping.L2Sq{}, Constraints: cons}); err != nil {
		return nil, err
	}
	d := hw.NewDefectMap(mesh)
	for col := 0; col < mesh.Cols; col++ {
		d.MarkDead(col)
	}
	_, err = mapping.RemapRows(p, pl, d, cons, hw.DefaultCostModel())
	return pl, err
}

// BenchmarkSimulateResNet measures the event-driven NoC engine on the
// acceptance benchmark's resnet_noc input: ResNet (5142 clusters, 72×72)
// placed by HSC and fine-tuned with L2Sq, 2.2 M spikes, 13.4 M link
// crossings. ns/traversal is host time per simulated link crossing.
func BenchmarkSimulateResNet(b *testing.B) {
	wl, err := expt.WorkloadByName("ResNet")
	if err != nil {
		b.Fatal(err)
	}
	p, mesh, err := wl.Build()
	if err != nil {
		b.Fatal(err)
	}
	pl, err := mapping.InitialPlacement(p, mesh, curve.Hilbert{})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := mapping.Finetune(p, pl, mapping.FDConfig{Potential: mapping.L2Sq{}}); err != nil {
		b.Fatal(err)
	}
	var traversals int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim, err := noc.Simulate(p, pl, noc.Config{SpikesPerUnit: 2e-4})
		if err != nil {
			b.Fatal(err)
		}
		traversals += sim.WireTraversals
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(traversals), "ns/traversal")
}
