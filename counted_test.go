package snnmap_test

import (
	"sync"
	"testing"

	"snnmap/internal/expt"
	"snnmap/internal/hw"
	"snnmap/internal/mapping"
	"snnmap/internal/metrics"
	"snnmap/internal/obs"
	"snnmap/internal/pcn"
	"snnmap/internal/snn"
)

// spanEnds keeps the arguments of the last end event of each span.
type spanEnds struct {
	mu   sync.Mutex
	args map[string]map[string]float64
}

func (s *spanEnds) Event(e obs.Event) {
	if e.Kind != obs.KindEnd {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	m := map[string]float64{}
	for _, kv := range e.Args {
		m[kv.K] = kv.V
	}
	s.args[e.Name] = m
}

func (s *spanEnds) Close() error { return nil }

// work is what the pipeline counts as it runs: the partition.expand span's
// out-rows run through mergeRow and adjacent out-rows compared (the
// transpose reads Expand's record and compares none), FDStats' iterations,
// swaps and tension checks, the fd.build span's aggregates, and the
// metrics.evaluate span's cells, rows and stencils. Stencils is run_tables +
// stencil_hits: at workers > 1 which worker builds a geometry first depends
// on the schedule, so only the sum is fixed.
type work struct {
	MergedRows, RowCompares                     int64
	Iterations, Swaps, TensionChecks            int64
	Aggregated, Walked, Runs, ClosedChunks      int64
	ExactCells, SweptCells, RowSums, RunTargets int64
	Stencils                                    int64
}

// countedWork expands n, maps it with the proposed pipeline (HSC + FD u_c)
// and evaluates it at the given worker count, on the pristine mesh MeshFor
// gives or, at deadFrac > 0, on a seeded faulty one; it returns the work
// counted on the way.
func countedWork(t *testing.T, n *snn.Net, deadFrac float64, workers int) work {
	t.Helper()
	sink := &spanEnds{args: map[string]map[string]float64{}}
	o := obs.New(obs.Config{Sink: sink})
	pcfg := pcn.DefaultPartition()
	pcfg.Workers, pcfg.Obs = workers, o
	p, err := pcn.Expand(n, pcfg)
	if err != nil {
		t.Fatal(err)
	}
	mesh, d := hw.MeshFor(p.NumClusters), (*hw.DefectMap)(nil)
	if deadFrac > 0 {
		mesh = expt.MeshForHealthy(p.NumClusters, deadFrac)
		d = hw.InjectUniform(mesh, deadFrac, 0, 1)
	}
	cfg := mapping.Default()
	cfg.Defects = d
	cfg.FD.Workers = workers
	cfg.Obs = o
	res, err := mapping.Map(p, mesh, cfg)
	if err != nil {
		t.Fatal(err)
	}
	metrics.Evaluate(p, res.Placement, hw.DefaultCostModel(), metrics.Options{Workers: workers, Obs: o})
	exp, build, eval := sink.args["partition.expand"], sink.args["fd.build"], sink.args["metrics.evaluate"]
	return work{
		MergedRows: int64(exp["merged_rows"]), RowCompares: int64(exp["row_compares"]),
		Iterations: int64(res.FD.Iterations), Swaps: res.FD.Swaps, TensionChecks: res.FD.TensionChecks,
		Aggregated: int64(build["aggregated"]), Walked: int64(build["walked"]),
		Runs: int64(build["runs"]), ClosedChunks: int64(build["closed_chunks"]),
		ExactCells: int64(eval["exact_cells"]), SweptCells: int64(eval["swept_cells"]),
		RowSums: int64(eval["row_sums"]), RunTargets: int64(eval["run_targets"]),
		Stencils: int64(eval["run_tables"] + eval["stencil_hits"]),
	}
}

// TestCountedWork pins the work the pipeline counts on four workloads, at
// workers 1 and 3. Counts do not drift with the machine the way walls do, so
// a change that alters one updates this table and names the delta.
func TestCountedWork(t *testing.T) {
	cases := []struct {
		name     string
		net      func() *snn.Net
		deadFrac float64
		want     work
	}{
		{"DNN_16M", snn.DNN16M, 0, work{
			MergedRows: 0, RowCompares: 126,
			Iterations: 55, Swaps: 497, TensionChecks: 50023,
			Aggregated: 4032, Walked: 64, Runs: 126, ClosedChunks: 1,
			ExactCells: 457551, SweptCells: 457551, RowSums: 3969, RunTargets: 3969, Stencils: 63}},
		{"CNN_16M", snn.CNN16M, 0, work{
			MergedRows: 4032, RowCompares: 4095,
			Iterations: 447, Swaps: 41799, TensionChecks: 1083380,
			Aggregated: 3, Walked: 4093, Runs: 2, ClosedChunks: 1,
			ExactCells: 106451, SweptCells: 106451, RowSums: 0, RunTargets: 149, Stencils: 94}},
		{"ResNet", snn.ResNet, 0, work{
			MergedRows: 3437, RowCompares: 3640,
			Iterations: 98, Swaps: 15433, TensionChecks: 411166,
			Aggregated: 35, Walked: 5107, Runs: 1, ClosedChunks: 0,
			ExactCells: 585354, SweptCells: 585354, RowSums: 608, RunTargets: 556, Stencils: 50}},
		{"DNN_16M/2%dead", snn.DNN16M, 0.02, work{
			MergedRows: 0, RowCompares: 126,
			Iterations: 64, Swaps: 2205, TensionChecks: 236036,
			Aggregated: 4032, Walked: 64, Runs: 126, ClosedChunks: 1,
			ExactCells: 555814, SweptCells: 555814, RowSums: 3969, RunTargets: 3969, Stencils: 63}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, workers := range []int{1, 3} {
				if got := countedWork(t, tc.net(), tc.deadFrac, workers); got != tc.want {
					t.Errorf("workers %d: counted work\n got %+v\nwant %+v", workers, got, tc.want)
				}
			}
		})
	}
}
