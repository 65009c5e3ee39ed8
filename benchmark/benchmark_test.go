package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"

	"snnmap/internal/hw"
	"snnmap/internal/obs"
)

// TestMain lets the test binary stand in for the benchmark binary when the
// driver re-executes itself for a repetition.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-child" {
		os.Exit(childMain(os.Args[1:]))
	}
	os.Exit(m.Run())
}

// TestSmoke drives the whole path — child re-exec, spans, checks, probes,
// trace file, JSON line — on the two tiny workloads.
func TestSmoke(t *testing.T) {
	for _, name := range []string{"smoke_dnn65k", "smoke_graph4k"} {
		t.Run(name, func(t *testing.T) {
			w, _, err := workloadByName(name)
			if err != nil {
				t.Fatal(err)
			}
			out := t.TempDir()
			r := runWorkload(w, runOptions{seed: 7, reps: 2, traced: true, out: out})
			for _, f := range r.failures {
				t.Error(f)
			}
			if r.attempted != 4 || r.failed != 0 {
				t.Fatalf("attempted %d, failed %d; want 4 repetitions (warm-up, 2 timed, traced), none failed", r.attempted, r.failed)
			}
			for _, d := range endToEnd {
				want := 2
				if d.name == "setup_s" {
					want = 3 // the warm-up's set-up counts
				}
				if s := r.endToEnd[d.name]; !(s.Median > 0) || s.N != want {
					t.Errorf("%s = %+v, want a positive median of %d", d.name, s, want)
				}
			}
			for _, name := range []string{"pcn.clusters", "mapping.hsc_s", "mapping.fd_s", "mapping.fd_build_s", "metrics.evaluate_s",
				"metrics.congestion_grid_s", "toposort.sort_s", "curve.points_s", "driver.cpu_s", "driver.trace_overhead_frac"} {
				if _, ok := r.layer[name]; !ok {
					t.Errorf("per-layer metric %s is missing", name)
				}
			}
			if w.parallel && !(r.layer["driver.par_speedup"] > 0) {
				t.Errorf("driver.par_speedup = %v on a parallel workload", r.layer["driver.par_speedup"])
			}
			if w.cacheProbe && r.layer["cache.hits"] != 1 {
				t.Errorf("cache.hits = %v, want 1", r.layer["cache.hits"])
			}

			f, err := os.Open(filepath.Join(out, "trace-"+name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			if stats, err := obs.ValidateTrace(f); err != nil || stats.Spans == 0 {
				t.Errorf("trace: %d spans, %v", stats.Spans, err)
			}

			for traced, defs := range map[bool][]metricDef{false: endToEnd, true: perLayer} {
				line := r.contract(traced)
				if !line.Correct || line.Attempted != 4 || line.Failed != 0 || len(line.Metrics) != len(defs) {
					t.Errorf("contract(traced=%v) = %+v", traced, line)
				}
				for _, d := range defs {
					if v, ok := line.Metrics[d.name]; !ok || v.Unit != d.unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
						t.Errorf("contract(traced=%v) metric %s = %+v", traced, d.name, v)
					}
				}
				if _, err := json.Marshal(line); err != nil {
					t.Error(err)
				}
			}
		})
	}
}

// TestSummarise pins the quartile arithmetic to the values Python's
// statistics.quantiles(v, n=4) gives, which the acceptance driver uses.
func TestSummarise(t *testing.T) {
	for _, c := range []struct {
		vals        []float64
		q1, med, q3 float64
	}{
		{[]float64{5}, 5, 5, 5},
		{[]float64{2, 1}, 0.75, 1.5, 2.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 5.5, 8.25},
	} {
		s := summarise(c.vals)
		if s.Q1 != c.q1 || s.Median != c.med || s.Q3 != c.q3 || s.N != len(c.vals) {
			t.Errorf("summarise(%v) = %+v, want quartiles %v %v %v", c.vals, s, c.q1, c.med, c.q3)
		}
	}
	if got := summarise([]float64{1, 2, 3}).iqrFrac(); got != 1 {
		t.Errorf("iqrFrac = %v, want 1", got)
	}
	if got := worsening(1.0, 1.1, false); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("a lower-is-better value rising 1.0 → 1.1 worsened by %v, want 0.1", got)
	}
	if got := worsening(2, 1, true); got != 0.5 {
		t.Errorf("a higher-is-better value falling 2 → 1 worsened by %v, want 0.5", got)
	}
	if got := worsening(2, 1, false); got != -0.5 {
		t.Errorf("a lower-is-better value falling 2 → 1 worsened by %v, want -0.5", got)
	}
}

// TestChecksCatchCorruption shows the independent checks are not vacuous:
// they pass on the pipeline's own output and fail on a tampered placement.
func TestChecksCatchCorruption(t *testing.T) {
	w, _, err := workloadByName("smoke_dnn65k")
	if err != nil {
		t.Fatal(err)
	}
	st := &state{seed: 1, workers: 1}
	if err := w.setup(st); err != nil {
		t.Fatal(err)
	}
	if err := runPipeline(w, st); err != nil {
		t.Fatal(err)
	}
	if bad, _ := checkOutputs(st); len(bad) > 0 {
		t.Fatalf("checks fail on an untouched run: %v", bad)
	}

	// Exchange a first-layer and a last-layer cluster: still a bijection,
	// but no longer the placement the Summary was computed from.
	pl := st.pl.Clone()
	a, b := 0, st.pcn.NumClusters-1
	pl.SwapCores(pl.PosOf[a], pl.PosOf[b])
	if err := checkBijection(pl, st.pcn.NumClusters, nil, st.mesh.Rows); err != nil {
		t.Fatalf("swapped placement should still be a bijection: %v", err)
	}
	if bad := checkSummary(st.summary, recompute(st.pcn, pl.PosOf, st.mesh, cost)); len(bad) == 0 {
		t.Error("energy recomputation agrees with a Summary of a different placement")
	}

	dup := st.pl.Clone()
	dup.PosOf[1] = dup.PosOf[0]
	if checkBijection(dup, st.pcn.NumClusters, nil, st.mesh.Rows) == nil {
		t.Error("two clusters on one core pass the bijection check")
	}
	dead := hw.NewDefectMap(st.mesh)
	dead.MarkDead(int(st.pl.PosOf[0]))
	if checkBijection(st.pl, st.pcn.NumClusters, dead, st.mesh.Rows) == nil {
		t.Error("a cluster on a dead core passes the bijection check")
	}
	if checkBijection(st.pl, st.pcn.NumClusters, nil, int(st.pl.PosOf[0])/st.mesh.Cols) == nil {
		t.Error("a cluster on a spare row passes the bijection check")
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json, which the acceptance driver
// reads, equal to the tables this program reports from.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var b struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Paths) != 1 || b.Paths[0] != "benchmark" || b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("paths %v, run_seconds %d", b.Paths, b.RunSeconds)
	}

	var want []*workload
	for _, w := range workloads {
		if !w.smoke {
			want = append(want, w)
		}
	}
	if len(b.Workloads) != len(want) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program runs %d", len(b.Workloads), len(want))
	}
	for i, w := range want {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why || len(w.why) > 200 {
			t.Errorf("workload %d: BENCHMARK.json %+v, program {%s %s}", i, b.Workloads[i], w.name, w.why)
		}
	}

	same := func(kind string, got []metric, defs []metricDef, bounded bool) {
		if len(got) != len(defs) {
			t.Fatalf("BENCHMARK.json lists %d %s metrics, the program reports %d", len(got), kind, len(defs))
		}
		for i, d := range defs {
			better := "lower"
			if d.higher {
				better = "higher"
			}
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != better {
				t.Errorf("%s metric %d: BENCHMARK.json %+v, program %+v", kind, i, g, d)
			}
			if bounded != (g.Bound != nil) || (bounded && (*g.Bound != d.bound || d.bound > 0.25)) {
				t.Errorf("%s metric %s: bound in BENCHMARK.json does not match %v", kind, d.name, d.bound)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd, true)
	same("per_layer", b.PerLayer, perLayer, false)
}
