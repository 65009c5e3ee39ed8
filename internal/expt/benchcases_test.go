package expt

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"snnmap/internal/baseline"
	"snnmap/internal/codec"
	"snnmap/internal/curve"
	"snnmap/internal/hw"
	"snnmap/internal/mapping"
	"snnmap/internal/metrics"
	"snnmap/internal/obs"
	"snnmap/internal/pcn"
	"snnmap/internal/place"
	"snnmap/internal/snn"
)

// BenchmarkCases is the kernel-level benchmark table: one sub-benchmark per
// operation on a named workload, op/workload. -short runs the CI-sized
// smoke tier. Each workload's inputs are built by the first case that needs
// them and shared after, so b.Run's calibration reruns do not rebuild them
// and a -bench filter builds only what its cases use. End-to-end numbers
// live in the benchmark/ module.
func BenchmarkCases(b *testing.B) {
	net, netFD := "MobileNet", 4
	partN, partWl := 131_072, "synthetic-131k"
	fdSide, fdIters, fdWl := 256, 3, "synthetic-256x256"
	evalN, evalWl := 3000, "synthetic-3k"
	kernNet, sweepNet, dfNet, failN := "DNN_268M", "CNN_16M", "ResNet", 4
	if testing.Short() {
		net, netFD = "LeNet-MNIST", 2
		partN, partWl = 32_768, "synthetic-32k"
		fdSide, fdIters, fdWl = 96, 2, "synthetic-96x96"
		evalN, evalWl = 300, "synthetic-300"
		kernNet, sweepNet, dfNet, failN = "DNN_65K", "CNN_65K", "LeNet-MNIST", 2
	}

	// A Table 3 workload through the three pipeline stages.
	netHSC := hscPlaced(net)
	b.Run("partition/"+net, func(b *testing.B) {
		w, err := WorkloadByName(net)
		if err != nil {
			b.Fatal(err)
		}
		timed(b, func() error { _, err := pcn.Expand(w.Net(), pcn.DefaultPartition()); return err })
	})
	b.Run("initial-placement/"+net, func(b *testing.B) {
		w := netHSC(b)
		timed(b, func() error { _, err := mapping.InitialPlacement(w.p, w.pl.Mesh, curve.Hilbert{}); return err })
	})
	b.Run("fd-finetune/"+net, func(b *testing.B) {
		w := netHSC(b)
		timed(b, func() error {
			_, err := mapping.Finetune(w.p, w.pl.Clone(), mapping.FDConfig{MaxIterations: netFD})
			return err
		})
	})

	// Algorithm 1 on a large explicit graph: one linear pass.
	graph := sync.OnceValue(func() *snn.Graph { return partitionGraph(partN) })
	partCfg := pcn.PartitionConfig{Constraints: hw.Constraints{NeuronsPerCore: 128}}
	b.Run("partition/flat/"+partWl, func(b *testing.B) {
		g := graph()
		timed(b, func() error { _, err := pcn.Partition(g, partCfg); return err })
	})

	// FD on a full mesh of randomly placed single-neuron clusters: large
	// tension queues that keep every sweep busy up to the iteration cap.
	// obs=trace attaches a live trace sink (events discarded) and
	// checkpoint=1 snapshots every iteration; each one's overhead is
	// its time over workers=1's. snapshot-encode/decode time the on-disk codec on a
	// mid-run snapshot with its PCN embedded.
	fdOnce := sync.OnceValues(func() (placed, error) { return fdGraph(fdSide) })
	fdw := mustGet(fdOnce)
	fdRun := func(cfg mapping.FDConfig) func(*testing.B) {
		cfg.Potential, cfg.MaxIterations = mapping.L2Sq{}, fdIters
		return func(b *testing.B) {
			w := fdw(b)
			timed(b, func() error { _, err := mapping.Finetune(w.p, w.pl.Clone(), cfg); return err })
		}
	}
	b.Run("fd-finetune/workers=1/"+fdWl, fdRun(mapping.FDConfig{Workers: 1}))
	b.Run("fd-finetune/obs=trace/"+fdWl, fdRun(mapping.FDConfig{Workers: 1,
		Obs: obs.New(obs.Config{Sink: obs.NewTraceSink(io.Discard)})}))
	b.Run("fd-finetune/checkpoint=1/"+fdWl, fdRun(mapping.FDConfig{Workers: 1,
		Checkpoint: &mapping.CheckpointConfig{Interval: 1, Fn: func(*mapping.Snapshot) error { return nil }}}))
	snap := mustGet(sync.OnceValues(func() (encodedSnapshot, error) {
		w, err := fdOnce()
		if err != nil {
			return encodedSnapshot{}, err
		}
		return captureSnapshot(w, fdIters)
	}))
	b.Run("snapshot-encode/"+fdWl, func(b *testing.B) {
		s := snap(b)
		b.SetBytes(int64(len(s.enc)))
		timed(b, func() error { return codec.WriteSnapshot(io.Discard, s.snap) })
	})
	b.Run("snapshot-decode/"+fdWl, func(b *testing.B) {
		s := snap(b)
		b.SetBytes(int64(len(s.enc)))
		timed(b, func() error { _, err := codec.ReadSnapshot(bytes.NewReader(s.enc)); return err })
	})

	// Metrics on a congestion-heavy random graph, whose 2.2e7 box cells are
	// far below the exact limit, so the congestion grid is exact.
	eval := mustGet(sync.OnceValues(func() (placed, error) { return evalGraph(evalN) }))
	b.Run("metrics-evaluate/workers=1/"+evalWl, func(b *testing.B) {
		w, cost := eval(b), hw.DefaultCostModel()
		timed(b, func() error {
			metrics.Evaluate(w.p, w.pl, cost, metrics.Options{Workers: 1})
			return nil
		})
	})

	// Kernels under the dense DNN pipeline stages. fd-build/* is one Finetune
	// sweep from the HSC placement with the adjacency built inside the call
	// (cold) or already cached on the PCN (warm); pcn-adjacency/transpose
	// builds the transpose FD and the baselines walk. Both cold builds run on
	// a fresh Expand (expanded, what a mapping run pays) and on a PCN without
	// Expand's record of its rows (decoded, as read from a file, whose
	// transpose scans for the repeated rows). congestion-grid/* propagates
	// the grid on the HSC+FD placement (exact), on a row-shifted repair whose
	// union boxes span the mesh (long-edges), and at the stride Evaluate
	// samples a grid with above its exact limit (sampled).
	kern := hscPlaced(kernNet)
	fdBuild := func(q *pcn.PCN, pl *place.Placement) error {
		_, err := mapping.Finetune(q, pl, mapping.FDConfig{Potential: mapping.L2Sq{}, MaxIterations: 1})
		return err
	}
	for _, from := range []string{"expanded", "decoded"} {
		b.Run("fd-build/adjacency=cold-"+from+"/"+kernNet, func(b *testing.B) {
			w := kern(b)
			timed(b, func() error {
				b.StopTimer()
				q, err := coldPCN(kernNet, w.p, from)
				pl := w.pl.Clone()
				b.StartTimer()
				if err != nil {
					return err
				}
				return fdBuild(q, pl)
			})
		})
		b.Run("pcn-adjacency/transpose="+from+"/"+kernNet, func(b *testing.B) {
			p := kern(b).p
			timed(b, func() error {
				b.StopTimer()
				q, err := coldPCN(kernNet, p, from)
				b.StartTimer()
				if err == nil {
					q.Symmetric()
				}
				return err
			})
		})
	}
	b.Run("fd-build/adjacency=warm/"+kernNet, func(b *testing.B) {
		w := kern(b)
		timed(b, func() error {
			b.StopTimer()
			pl := w.pl.Clone()
			b.StartTimer()
			return fdBuild(w.p, pl)
		})
	})
	mapped := mustGet(sync.OnceValues(func() (*place.Placement, error) {
		p, mesh, err := buildNet(kernNet)
		if err != nil {
			return nil, err
		}
		res, err := mapping.Map(p, mesh, mapping.Default())
		if err != nil {
			return nil, err
		}
		return res.Placement, nil
	}))
	shifted := mustGet(sync.OnceValues(func() (*place.Placement, error) {
		p, mesh, err := buildNet(kernNet)
		if err != nil {
			return nil, err
		}
		return rowShifted(p, mesh)
	}))
	for _, g := range []struct {
		name    string
		pl      func(*testing.B) *place.Placement
		sampled bool
	}{{"exact", mapped, false}, {"long-edges", shifted, false}, {"sampled", mapped, true}} {
		b.Run("congestion-grid/"+g.name+"/"+kernNet, func(b *testing.B) {
			p, pl, stride := kern(b).p, g.pl(b), 1
			if g.sampled {
				// Evaluate's sampled grid takes every ⌈E/sampleEdges⌉-th edge.
				const sampleEdges = 200_000
				stride = (int(p.NumEdges()) + sampleEdges - 1) / sampleEdges
			}
			timed(b, func() error { metrics.CongestionGrid(p, pl, stride, 1); return nil })
		})
	}

	// Field repair after the first occupied row of a defective, spare-row
	// mesh fails (the benchmark's dnn268m_faulty shape), and after the first
	// failN fail (DNN_65K has room for 2): the row shifts priced by ΔM_ec,
	// and per-cluster migration to the nearest free core.
	one := mustGet(sync.OnceValues(func() (rowFailure, error) { return failRows(kernNet, 1) }))
	many := mustGet(sync.OnceValues(func() (rowFailure, error) { return failRows(kernNet, failN) }))
	repair := func(faulty func(*testing.B) rowFailure, fn func(*pcn.PCN, *place.Placement, *hw.DefectMap, hw.Constraints, hw.CostModel) (mapping.RemapStats, error)) func(*testing.B) {
		return func(b *testing.B) {
			f, cost := faulty(b), hw.DefaultCostModel()
			timed(b, func() error {
				b.StopTimer()
				pl := f.pl.Clone()
				b.StartTimer()
				_, err := fn(f.p, pl, f.d, f.cons, cost)
				return err
			})
		}
	}
	b.Run("repair/remap-rows/"+kernNet, repair(one, mapping.RemapRows))
	b.Run("repair/remap/"+kernNet, repair(one, mapping.Remap))
	b.Run(fmt.Sprintf("repair/remap-rows-%d/%s", failN, kernNet), repair(many, mapping.RemapRows))

	// DFSynthesizer's greedy swap search, each swap priced by ΔM_ec.
	b.Run("baseline/dfsynthesizer/"+dfNet, func(b *testing.B) {
		p, mesh, err := buildNet(dfNet)
		if err != nil {
			b.Fatal(err)
		}
		p.Symmetric() // built once, outside the timed region
		timed(b, func() error { _, _, err := baseline.DFSynthesizer(p, mesh, baseline.Options{Seed: 3}); return err })
	})

	// FD to convergence on a sparse CNN, where the O(E) build is a few
	// percent and the swap kernel and queue rebuild dominate; ns/swap is the
	// per-swap cost.
	sweep := hscPlaced(sweepNet)
	b.Run("fd-sweep/"+sweepNet, func(b *testing.B) {
		w := sweep(b)
		w.p.Symmetric() // built once, outside the timed region
		var swaps int64
		timed(b, func() error {
			b.StopTimer()
			pl := w.pl.Clone()
			b.StartTimer()
			st, err := mapping.Finetune(w.p, pl, mapping.FDConfig{Potential: mapping.L2Sq{}})
			swaps += st.Swaps
			return err
		})
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(swaps), "ns/swap")
	})
}

// mustGet adapts a memoised build to a benchmark: the returned getter fails
// the benchmark when the build did.
func mustGet[T any](get func() (T, error)) func(*testing.B) T {
	return func(b *testing.B) T {
		v, err := get()
		if err != nil {
			b.Fatal(err)
		}
		return v
	}
}

// timed runs op b.N times with allocations reported. The timer restarts
// first, so a memoised build this call triggered stays out of the result.
func timed(b *testing.B, op func() error) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := op(); err != nil {
			b.Fatal(err)
		}
	}
}

// placed is a PCN with a placement of its clusters.
type placed struct {
	p  *pcn.PCN
	pl *place.Placement
}

func buildNet(name string) (*pcn.PCN, hw.Mesh, error) {
	w, err := WorkloadByName(name)
	if err != nil {
		return nil, hw.Mesh{}, err
	}
	return w.Build()
}

// hscPlaced memoises a Table 3 workload's HSC placement along the Hilbert
// curve.
func hscPlaced(name string) func(*testing.B) placed {
	return mustGet(sync.OnceValues(func() (placed, error) {
		p, mesh, err := buildNet(name)
		if err != nil {
			return placed{}, err
		}
		pl, err := mapping.InitialPlacement(p, mesh, curve.Hilbert{})
		return placed{p, pl}, err
	}))
}

// coldPCN returns a PCN with p's edges and no adjacency built yet: workload
// name expanded afresh, Expand's record of its rows included, or, from
// "decoded", uncachedPCN(p).
func coldPCN(name string, p *pcn.PCN, from string) (*pcn.PCN, error) {
	if from == "decoded" {
		return uncachedPCN(p), nil
	}
	w, err := WorkloadByName(name)
	if err != nil {
		return nil, err
	}
	return pcn.Expand(w.Net(), pcn.DefaultPartition())
}

// uncachedPCN returns a PCN sharing p's arrays but none of its lazily built
// adjacency views or of Expand's record of its rows, as a PCN read from a
// file, so a benchmark iteration pays for the build and the scans.
func uncachedPCN(p *pcn.PCN) *pcn.PCN {
	return &pcn.PCN{
		Name: p.Name, NumClusters: p.NumClusters,
		Neurons: p.Neurons, Synapses: p.Synapses, Layer: p.Layer,
		OutOff: p.OutOff, OutTo: p.OutTo, OutW: p.OutW,
		InternalTraffic: p.InternalTraffic,
	}
}

// randomPlaced partitions g one neuron per cluster and places the clusters
// at random on mesh.
func randomPlaced(g *snn.Graph, mesh hw.Mesh, rng *rand.Rand) (placed, error) {
	res, err := pcn.Partition(g, pcn.PartitionConfig{Constraints: hw.Constraints{NeuronsPerCore: 1}})
	if err != nil {
		return placed{}, err
	}
	pl, err := place.Random(res.PCN.NumClusters, mesh, rng)
	return placed{res.PCN, pl}, err
}

// fdGraph fills a side×side mesh with clusters whose edges mix two
// short-range targets (smooth tension gradients) with two uniform long-range
// ones (a queue that does not drain early).
func fdGraph(side int) (placed, error) {
	n := side * side
	rng := rand.New(rand.NewSource(7))
	var gb snn.GraphBuilder
	gb.AddNeurons(n, -1)
	for i := 0; i < n; i++ {
		for _, j := range []int{(i + 1) % n, (i + side) % n, rng.Intn(n), rng.Intn(n)} {
			if j != i {
				gb.AddSynapse(i, j, rng.Float64()*9+0.5)
			}
		}
	}
	return randomPlaced(gb.Build(), hw.MustMesh(side, side), rng)
}

// evalGraph is n clusters with 20·n uniform random edges: exact expectation
// grids dominate evaluating it.
func evalGraph(n int) (placed, error) {
	rng := rand.New(rand.NewSource(6))
	var gb snn.GraphBuilder
	gb.AddNeurons(n, -1)
	for e := 0; e < 20*n; e++ {
		if u, v := rng.Intn(n), rng.Intn(n); u != v {
			gb.AddSynapse(u, v, rng.Float64()*9+0.5)
		}
	}
	return randomPlaced(gb.Build(), hw.MeshFor(n), rng)
}

type encodedSnapshot struct {
	snap *mapping.Snapshot
	enc  []byte
}

// captureSnapshot fine-tunes w to the iteration cap and encodes the last
// checkpoint snapshot (with the PCN embedded by the engine).
func captureSnapshot(w placed, iters int) (encodedSnapshot, error) {
	var s encodedSnapshot
	_, err := mapping.Finetune(w.p, w.pl.Clone(), mapping.FDConfig{
		Potential:     mapping.L2Sq{},
		MaxIterations: iters,
		Checkpoint: &mapping.CheckpointConfig{Interval: 1, Fn: func(snap *mapping.Snapshot) error {
			s.snap = snap
			return nil
		}},
	})
	if err == nil && s.snap == nil {
		err = fmt.Errorf("expt: fd workload converged before the first checkpoint")
	}
	if err != nil {
		return s, err
	}
	var buf bytes.Buffer
	err = codec.WriteSnapshot(&buf, s.snap)
	s.enc = buf.Bytes()
	return s, err
}

// rowFailure is a fine-tuned placement on a defective mesh and the field
// defect map that kills its first occupied row.
type rowFailure struct {
	placed
	d    *hw.DefectMap
	cons hw.Constraints
}

// failRows places the named workload by HSC + FD on its mesh grown by an
// eighth plus two spare rows, with 2 % of the cores dead in eight blobs,
// then fails its first n occupied rows.
func failRows(name string, n int) (rowFailure, error) {
	p, mesh, err := buildNet(name)
	if err != nil {
		return rowFailure{}, err
	}
	mesh = hw.MustMesh(mesh.Rows+mesh.Rows/8+2, mesh.Cols)
	cons := hw.Constraints{SpareRows: 2}
	d := hw.InjectClustered(mesh, 0.02, 8, 1)
	pl, err := mapping.InitialPlacementDefects(p, mesh, curve.Hilbert{}, d, cons)
	if err != nil {
		return rowFailure{}, err
	}
	if _, err := mapping.Finetune(p, pl, mapping.FDConfig{Potential: mapping.L2Sq{}, Defects: d, Constraints: cons}); err != nil {
		return rowFailure{}, err
	}
	field := d.Clone()
	for row := 0; row < mesh.Rows && n > 0; row++ {
		if slices.ContainsFunc(pl.ClusterAt[row*mesh.Cols:(row+1)*mesh.Cols], func(c int32) bool { return c != place.None }) {
			for col := 0; col < mesh.Cols; col++ {
				field.MarkDead(row*mesh.Cols + col)
			}
			n--
		}
	}
	return rowFailure{placed{p, pl}, field, cons}, nil
}

// rowShifted places p by HSC + FD on mesh grown by two spare rows, fails row
// 0 and repairs it with RemapRows.
func rowShifted(p *pcn.PCN, mesh hw.Mesh) (*place.Placement, error) {
	mesh = hw.MustMesh(mesh.Rows+2, mesh.Cols)
	cons := hw.Constraints{SpareRows: 2}
	pl, err := mapping.InitialPlacementDefects(p, mesh, curve.Hilbert{}, nil, cons)
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

// partitionGraph builds the partitioner benchmark graph: n neurons with
// a heavy nearest-neighbor chain (the locality flat partitioning exploits),
// six mid-range edges per neuron into the i+7..i+47 band (traffic that
// crosses flat cluster boundaries and rewards refinement), and ~10%
// long-range edges (cut weight no local move can remove). No layer tags, so
// both partitioners pack purely by capacity.
func partitionGraph(n int) *snn.Graph {
	rng := rand.New(rand.NewSource(11))
	var gb snn.GraphBuilder
	gb.AddNeurons(n, -1)
	for i := 0; i < n; i++ {
		gb.AddSynapse(i, (i+1)%n, 8+rng.Float64())
		for k := 0; k < 6; k++ {
			gb.AddSynapse(i, (i+7+rng.Intn(41))%n, 1+rng.Float64())
		}
		if rng.Float64() < 0.10 {
			j := rng.Intn(n)
			if j != i {
				gb.AddSynapse(i, j, 0.5+rng.Float64())
			}
		}
	}
	return gb.Build()
}
