package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"

	"snnmap/internal/curve"
	"snnmap/internal/hw"
	"snnmap/internal/mapping"
	"snnmap/internal/metrics"
	"snnmap/internal/noc"
	"snnmap/internal/pcn"
	"snnmap/internal/place"
	"snnmap/internal/snn"
)

// workload is one set of inputs and the stage list that maps them.
type workload struct {
	name string
	// why is the one-line reason BENCHMARK.json records for the workload.
	why string
	// parallel runs every layer at min(nproc, 4) workers; the others run
	// the sequential paths.
	parallel bool
	// reps is the number of timed repetitions of a full run, and minReps
	// the fewest a run measured by -seconds makes.
	reps, minReps int
	// minMemAvailable refuses the workload on a box that would swap.
	minMemAvailable uint64
	// cacheProbe adds the warm-start cache probe to the traced repetition.
	cacheProbe bool
	// smoke marks the tiny workloads of the tests; a full run skips them.
	smoke bool
	// setup generates the inputs from the seed. It is untimed.
	setup func(st *state) error
	// stages is the timed pipeline, in order.
	stages []func(st *state) error
}

func (w *workload) workers() int {
	if !w.parallel {
		return 1
	}
	return min(runtime.NumCPU(), 4)
}

// state carries one repetition's inputs and every result the checks and
// the per-layer metrics read afterwards.
type state struct {
	seed    int64
	workers int
	rec     *recorder
	// spanPrefix distinguishes the spans of the workers=1 scaling probe
	// from the pipeline's own.
	spanPrefix string

	// Inputs, made by setup.
	net   *snn.Net
	graph *snn.Graph
	// neuronsPerCore is CON_npc for explicit graphs.
	neuronsPerCore int
	// mesh is fixed by setup for the faulty workload; otherwise it is the
	// smallest square that holds the PCN.
	mesh    hw.Mesh
	defects *hw.DefectMap
	cons    hw.Constraints

	// Results, in pipeline order.
	pcn        *pcn.PCN
	multilevel *pcn.MultilevelStats
	pl         *place.Placement
	fd         mapping.FDStats
	// Repair: preRepair is the fine-tuned placement before the row failed,
	// pl the RemapRows repair, perCluster the Remap repair of a clone, and
	// fieldDefects the defect map with the failed row.
	preRepair, perCluster *place.Placement
	fieldDefects          *hw.DefectMap
	rowRemap              *mapping.RowRemapStats
	remap                 mapping.RemapStats
	summary               metrics.Summary
	sim                   *noc.Result
	multicast             *metrics.MulticastSummary
}

func (st *state) span(name string) func() { return st.rec.span(st.spanPrefix + name) }

var cost = hw.DefaultCostModel()

// Input generators.

func layered(build func() *snn.Net) func(st *state) error {
	return func(st *state) error {
		defer st.span("snn.build")()
		st.net = build()
		return st.net.Validate()
	}
}

func randomGraph(neurons, neuronsPerCore int) func(st *state) error {
	return func(st *state) error {
		defer st.span("snn.build")()
		g, err := snn.RandomGraph(snn.RandomConfig{
			Neurons: neurons, AvgDegree: 8, LocalityBand: 0.002, LongRangeFrac: 0.05, MaxDensity: 1,
		}, rand.New(rand.NewSource(st.seed)))
		st.graph, st.neuronsPerCore = g, neuronsPerCore
		return err
	}
}

// faultyDNN268M is DNN_268M on a mesh with 2 % of its cores dead in eight
// blobs, grown by 34 rows so the healthy remainder still holds the PCN, two
// of them reserved as spares.
func faultyDNN268M(st *state) error {
	if err := layered(snn.DNN268M)(st); err != nil {
		return err
	}
	defer st.span("hw.inject")()
	st.mesh = hw.MustMesh(290, 256)
	st.cons = hw.Constraints{SpareRows: 2}
	st.defects = hw.InjectClustered(st.mesh, 0.02, 8, st.seed)
	return nil
}

// Pipeline stages. Each wraps exactly one call into a layer in a span; the
// few lines around a span are the driver's own glue.

func stageExpand(st *state) error {
	cfg := pcn.DefaultPartition()
	cfg.Workers = st.workers
	defer st.span("pcn.expand")()
	p, err := pcn.Expand(st.net, cfg)
	st.pcn = p
	return err
}

func stagePartition(st *state) error {
	cfg := pcn.DefaultPartition()
	cfg.Constraints.NeuronsPerCore = st.neuronsPerCore
	cfg.Multilevel = &pcn.MultilevelOptions{Workers: st.workers}
	defer st.span("pcn.partition")()
	res, stats, err := pcn.PartitionMultilevel(st.graph, cfg)
	if err != nil {
		return err
	}
	st.pcn, st.multilevel = res.PCN, &stats
	return nil
}

func stageHSC(st *state) error {
	if st.mesh == (hw.Mesh{}) {
		side := int(math.Ceil(math.Sqrt(float64(st.pcn.NumClusters))))
		st.mesh = hw.MustMesh(side, side)
	}
	defer st.span("mapping.hsc")()
	pl, err := mapping.InitialPlacementWorkers(st.pcn, st.mesh, curve.Hilbert{}, st.defects, st.cons, st.workers)
	st.pl = pl
	return err
}

func (st *state) fdConfig() mapping.FDConfig {
	return mapping.FDConfig{Potential: mapping.L2Sq{}, Workers: st.workers, Defects: st.defects, Constraints: st.cons}
}

func stageFD(st *state) error {
	defer st.span("mapping.fd")()
	var err error
	st.fd, err = mapping.Finetune(st.pcn, st.pl, st.fdConfig())
	return err
}

// stageRepair fails the first occupied mesh row in the field and repairs
// the placement twice: by wholesale row shift, and per cluster on a clone.
func stageRepair(st *state) error {
	mesh := st.mesh
	victim := -1
	for idx, c := range st.pl.ClusterAt {
		if c != place.None {
			victim = idx / mesh.Cols
			break
		}
	}
	if victim < 0 {
		return fmt.Errorf("repair: empty placement")
	}
	st.fieldDefects = st.defects.Clone()
	for col := 0; col < mesh.Cols; col++ {
		st.fieldDefects.MarkDead(victim*mesh.Cols + col)
	}
	st.preRepair, st.perCluster = st.pl.Clone(), st.pl.Clone()

	end := st.span("mapping.remap_rows")
	rows, err := mapping.RemapRows(st.pcn, st.pl, st.fieldDefects, st.cons, cost)
	end()
	if err != nil {
		return err
	}
	st.rowRemap = &rows

	end = st.span("mapping.remap")
	st.remap, err = mapping.Remap(st.pcn, st.perCluster, st.fieldDefects, st.cons, cost)
	end()
	return err
}

func stageEvaluate(st *state) error {
	defer st.span("metrics.evaluate")()
	st.summary = metrics.Evaluate(st.pcn, st.pl, cost, metrics.Options{Workers: st.workers})
	return nil
}

func nocConfig(shards int) noc.Config { return noc.Config{SpikesPerUnit: 2e-4, Shards: shards} }

func stageNoC(st *state) error {
	defer st.span("noc.simulate")()
	res, err := noc.Simulate(st.pcn, st.pl, nocConfig(1))
	st.sim = &res
	return err
}

func stageMulticast(st *state) error {
	defer st.span("metrics.multicast")()
	mc := metrics.MulticastEnergy(st.pcn, st.pl, cost)
	st.multicast = &mc
	return nil
}

var (
	layeredStages = []func(*state) error{stageExpand, stageHSC, stageFD, stageEvaluate}
	graphStages   = []func(*state) error{stagePartition, stageHSC, stageFD, stageEvaluate}
)

// workloads is the benchmark. README.md gives the measured stage shares
// behind each reason.
var workloads = []*workload{
	{
		name: "dnn268m", reps: 7, minReps: 3, cacheProbe: true,
		why:    "DNN_268M, 65536 clusters, 4.19M edges: dense PCN where FD's O(E) build and evaluate's congestion grid split the time",
		setup:  layered(snn.DNN268M),
		stages: layeredStages,
	},
	{
		name: "dnn268m_par", reps: 7, minReps: 3, parallel: true,
		why:    "same input and calls at workers=min(nproc,4): a change that trades the sequential path for the parallel one moves this pair apart",
		setup:  layered(snn.DNN268M),
		stages: layeredStages,
	},
	{
		name: "cnn268m", reps: 7, minReps: 3,
		why:    "CNN_268M, 65536 clusters, 262K edges: sparse PCN where FD sweeps (804 sweeps, 695K swaps) are 97% and evaluate must not matter",
		setup:  layered(snn.CNN268M),
		stages: layeredStages,
	},
	{
		name: "graph512k", reps: 7, minReps: 5,
		why:    "seeded 524288-neuron random graph: the only explicit-graph input, so multilevel partitioning dominates and long-range edges load evaluate",
		setup:  randomGraph(524288, 128),
		stages: graphStages,
	},
	{
		name: "resnet_noc", reps: 7, minReps: 3,
		why:    "ResNet, 5142 clusters, irregular topology: 2.2M-spike NoC simulation is ~90% and the mapping layers do little",
		setup:  layered(snn.ResNet),
		stages: []func(*state) error{stageExpand, stageHSC, stageFD, stageEvaluate, stageNoC, stageMulticast},
	},
	{
		name: "dnn268m_faulty", reps: 7, minReps: 3,
		why:    "DNN_268M on a seeded 2%-dead 290x256 mesh: defect-skipping HSC, FD with blocked swaps, then a row failure repaired by RemapRows and Remap",
		setup:  faultyDNN268M,
		stages: []func(*state) error{stageExpand, stageHSC, stageFD, stageRepair, stageEvaluate},
	},
	{
		name: "dnn4b", reps: 3, minReps: 2, minMemAvailable: 6 << 30,
		why:    "DNN_4B, 1048576 clusters, 67.1M edges, 2.4 GiB: the paper's namesake scale, where page faults and allocation volume show and nowhere else",
		setup:  layered(snn.DNN4B),
		stages: layeredStages,
	},
	{
		name: "smoke_dnn65k", reps: 1, minReps: 1, smoke: true, parallel: true, cacheProbe: true,
		why:    "test only: DNN_65K through the layered stage list and the scaling probe",
		setup:  layered(snn.DNN65K),
		stages: layeredStages,
	},
	{
		name: "smoke_graph4k", reps: 1, minReps: 1, smoke: true,
		why:    "test only: a 4096-neuron random graph through the explicit-graph stage list",
		setup:  randomGraph(4096, 128),
		stages: graphStages,
	},
}

func workloadByName(name string) (*workload, int, error) {
	for i, w := range workloads {
		if w.name == name {
			return w, i, nil
		}
	}
	return nil, 0, fmt.Errorf("unknown workload %q", name)
}

// runPipeline runs the stage list under one root span, so whatever the
// stage spans do not cover shows as the root's self time.
func runPipeline(w *workload, st *state) error {
	defer st.span("pipeline")()
	for _, stage := range w.stages {
		if err := stage(st); err != nil {
			return err
		}
	}
	return nil
}
