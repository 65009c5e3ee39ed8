package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"snnmap/internal/obs"
)

// repResult is what one repetition reports to the driver, as one JSON
// object on the last line of its standard output.
type repResult struct {
	// Metrics holds the end-to-end values of this repetition and every
	// per-layer value it could measure; a traced repetition adds the span
	// times and the probes.
	Metrics map[string]float64 `json:"metrics"`
	// Failures lists the correctness checks that failed.
	Failures []string `json:"failures,omitempty"`
	// Error is set when the repetition could not finish.
	Error string `json:"error,omitempty"`
}

// unattributedFloor is the absolute slack of the attribution check, for
// pipelines so short that two MemStats reads per span outweigh 2 % of them.
const unattributedFloor = 2 * time.Millisecond

// childMain runs one repetition of one workload in this process:
// `-child <workload> -seed n -spawn-ns t [-traced -out dir]`.
func childMain(args []string) int {
	fs := flag.NewFlagSet("child", flag.ContinueOnError)
	name := fs.String("child", "", "workload to run")
	seed := fs.Int64("seed", 1, "input seed")
	spawnNs := fs.Int64("spawn-ns", 0, "wall-clock time, in Unix ns, at which the driver spawned this process")
	traced := fs.Bool("traced", false, "record spans and run the kernel probes")
	out := fs.String("out", "", "directory for the trace file and probe scratch")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	res := runRep(*name, *seed, *spawnNs, *traced, *out)
	enc, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark child:", err)
		return 2
	}
	fmt.Println(string(enc))
	if res.Error != "" {
		return 1
	}
	return 0
}

func runRep(name string, seed, spawnNs int64, traced bool, out string) (res repResult) {
	res.Metrics = map[string]float64{}
	m := res.Metrics
	w, index, err := workloadByName(name)
	if err != nil {
		res.Error = err.Error()
		return res
	}
	st := &state{seed: seed, workers: w.workers()}
	if traced {
		st.rec = newRecorder()
	}

	// Set-up: process start and input generation, up to the first call into
	// internal/pcn. The collection lets the pipeline start from a heap that
	// holds the inputs and none of the generator's garbage. The generators
	// are single-threaded; on one P their time does not depend on whether a
	// second CPU happens to be free for the concurrent collector, which on
	// a shared 2-vCPU box moves graph512k's set-up by 40 % for minutes.
	procs := runtime.GOMAXPROCS(1)
	if err := w.setup(st); err != nil {
		res.Error = "setup: " + err.Error()
		return res
	}
	runtime.GC()
	runtime.GOMAXPROCS(procs)
	var ms0, ms1 runtime.MemStats
	var ru0, ru1 syscall.Rusage
	runtime.ReadMemStats(&ms0)
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru0) // cannot fail for RUSAGE_SELF
	start := time.Now()
	m["setup_s"] = float64(start.UnixNano()-spawnNs) / 1e9

	err = runPipeline(w, st)
	mapWall := time.Since(start)
	m["map_wall_s"] = mapWall.Seconds()

	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru1)
	runtime.ReadMemStats(&ms1)
	if err != nil {
		res.Error = "pipeline: " + err.Error()
		return res
	}
	m["peak_rss_bytes"] = float64(ru1.Maxrss) * 1024 // the VmHWM of /proc/self/status, in KiB
	user, sys := cpuSeconds(ru1.Utime)-cpuSeconds(ru0.Utime), cpuSeconds(ru1.Stime)-cpuSeconds(ru0.Stime)
	m["driver.cpu_s"] = user + sys
	m["driver.sys_cpu_s"] = sys
	m["driver.minor_faults"] = float64(ru1.Minflt - ru0.Minflt)
	m["driver.alloc_bytes"] = float64(ms1.TotalAlloc - ms0.TotalAlloc)
	m["driver.mallocs"] = float64(ms1.Mallocs - ms0.Mallocs)

	outputMetrics(st, m)
	failures, recomputed := checkOutputs(st)
	res.Failures = failures

	if traced {
		res.Failures = append(res.Failures, runProbes(w, st, recomputed, out, m)...)
		spanMetrics(st, m)
		res.Failures = append(res.Failures, checkAttribution(st.rec, mapWall)...)
		if out != "" {
			if err := writeAndValidateTrace(st.rec, filepath.Join(out, "trace-"+w.name+".json"), index); err != nil {
				res.Failures = append(res.Failures, "trace: "+err.Error())
			}
		}
	}
	return res
}

func cpuSeconds(tv syscall.Timeval) float64 { return float64(tv.Sec) + float64(tv.Usec)/1e6 }

// energyUnit is the number of cost-model units in one reported unit of
// energy. DNN_4B's energy is 1.4e16 model units, past 2^53, where a reader
// that takes a JSON integer literally no longer holds every digit; in units
// of 1e9 the largest energy of the benchmark is 1e8.
const energyUnit = 1e9

// outputMetrics publishes what the pipeline returned: the five quality
// metrics and the counts that must repeat exactly at a fixed seed.
func outputMetrics(st *state, m map[string]float64) {
	m["energy"] = st.summary.Energy / energyUnit
	m["avg_latency"] = st.summary.AvgLatency
	m["max_latency"] = st.summary.MaxLatency
	m["avg_congestion"] = st.summary.AvgCongestion
	m["max_congestion"] = st.summary.MaxCongestion

	if st.net != nil {
		m["snn.neurons"] = float64(st.net.NumNeurons())
		m["snn.synapses"] = float64(st.net.NumSynapses())
	} else {
		m["snn.neurons"] = float64(st.graph.NumNeurons)
		m["snn.synapses"] = float64(st.graph.NumSynapses())
	}
	m["pcn.clusters"] = float64(st.pcn.NumClusters)
	m["pcn.edges"] = float64(st.pcn.NumEdges())
	m["pcn.cut_weight"] = st.pcn.TotalWeight()
	if ml := st.multilevel; ml != nil {
		m["pcn.levels"] = float64(ml.Levels)
		m["pcn.refine_moves"] = float64(ml.Moves)
		if ml.CutFlat > 0 {
			m["pcn.cut_vs_flat"] = ml.CutMultilevel / ml.CutFlat
		}
	}
	m["mapping.fd_iterations"] = float64(st.fd.Iterations)
	m["mapping.fd_swaps"] = float64(st.fd.Swaps)
	m["mapping.fd_tension_checks"] = float64(st.fd.TensionChecks)
	m["mapping.fd_converged"] = b2f(st.fd.Converged)
	m["mapping.fd_energy_initial"] = st.fd.InitialEnergy / energyUnit
	m["mapping.fd_energy_final"] = st.fd.FinalEnergy / energyUnit
	if st.rowRemap != nil {
		m["mapping.remap_moved"] = float64(st.rowRemap.Moved)
		m["mapping.remap_delta_energy"] = st.rowRemap.DeltaEnergy() / energyUnit
	}
	if st.defects != nil {
		m["hw.dead_cores"] = float64(st.defects.NumDead())
	}
	if sim := st.sim; sim != nil {
		m["noc.injected"] = float64(sim.Injected)
		m["noc.delivered"] = float64(sim.Delivered)
		m["noc.dropped"] = float64(sim.Dropped)
		m["noc.cycles"] = float64(sim.Cycles)
		m["noc.wire_traversals"] = float64(sim.WireTraversals)
		m["noc.avg_latency_cycles"] = sim.AvgLatencyCycles
		m["noc.max_latency_cycles"] = float64(sim.MaxLatencyCycles)
		m["noc.max_queue_len"] = float64(sim.MaxQueueLen)
		m["noc.sim_energy"] = sim.Energy / energyUnit
	}
	if st.multicast != nil {
		m["metrics.multicast_saving"] = st.multicast.Saving()
	}
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// spanMetrics derives the per-layer times and allocation volumes from the
// traced repetition's spans. A metric whose span this workload never opens
// stays absent.
func spanMetrics(st *state, m map[string]float64) {
	rec := st.rec
	// Every span's self time is <span>_s; alloc names the metric, if any,
	// that reports the heap volume allocated inside it.
	for _, s := range []struct{ span, alloc string }{
		{"snn.build", ""},
		{"hw.inject", ""},
		{"pcn.expand", "pcn.expand_alloc_bytes"},
		{"pcn.partition", "pcn.partition_alloc_bytes"},
		{"mapping.hsc", ""},
		{"mapping.fd", "mapping.fd_alloc_bytes"},
		{"mapping.remap_rows", ""},
		{"mapping.remap", ""},
		{"metrics.evaluate", "metrics.evaluate_alloc_bytes"},
		{"noc.simulate", "noc.alloc_bytes"},
		{"metrics.multicast", ""},
		{"toposort.sort", ""},
		{"curve.points", ""},
		{"mapping.fd_build", ""},
		{"metrics.evaluate_skipcong", ""},
		{"metrics.congestion_grid", ""},
		{"cache.cold_map", ""},
		{"cache.warm_map", ""},
	} {
		sp, ok := rec.find(s.span)
		if !ok {
			continue
		}
		m[s.span+"_s"] = rec.selfTime(sp).Seconds()
		if s.alloc != "" {
			m[s.alloc] = float64(sp.allocBytes)
		}
	}

	perUnit := func(name, seconds, units string) {
		if s, ok := m[seconds]; ok && m[units] > 0 {
			m[name] = s * 1e9 / m[units]
		}
	}
	perUnit("pcn.expand_ns_per_edge", "pcn.expand_s", "pcn.edges")
	perUnit("metrics.evaluate_ns_per_edge", "metrics.evaluate_s", "pcn.edges")
	perUnit("mapping.fd_ns_per_tension_check", "mapping.fd_s", "mapping.fd_tension_checks")
	if st.sim != nil {
		var traversals int64
		for _, n := range st.sim.RouterTraversals {
			traversals += n
		}
		m["noc.host_ns_per_traversal"] = m["noc.simulate_s"] * 1e9 / float64(traversals)
		if sharded := rec.selfSeconds("noc.simulate_sharded"); sharded > 0 {
			m["noc.sharded_speedup"] = m["noc.simulate_s"] / sharded
		}
	}
	if it := m["mapping.fd_iterations"]; it > 0 {
		m["mapping.fd_s_per_iteration"] = m["mapping.fd_s"] / it
	}
	if build, ok := m["mapping.fd_build_s"]; ok {
		m["mapping.fd_sweep_s"] = m["mapping.fd_s"] - build
	}

	// Scaling: each stage of the workers=1 probe over the same stage of the
	// parallel pipeline.
	ratio := func(name, span string) {
		par, seq := rec.selfSeconds(span), rec.selfSeconds(seqPrefix+span)
		if par > 0 && seq > 0 {
			m[name] = seq / par
		}
	}
	if seq, ok := rec.find(seqPrefix + "pipeline"); ok {
		par, _ := rec.find("pipeline")
		m["driver.par_speedup"] = seq.dur().Seconds() / par.dur().Seconds()
		ratio("pcn.expand_par_speedup", "pcn.expand")
		ratio("mapping.hsc_par_speedup", "mapping.hsc")
		ratio("mapping.fd_par_speedup", "mapping.fd")
		ratio("metrics.evaluate_par_speedup", "metrics.evaluate")
	}
}

// checkAttribution asserts that the stage spans account for the timed
// region (what they leave uncovered is the driver's glue and the tracing
// itself), and that every probe ran after the timed region had ended.
func checkAttribution(rec *recorder, mapWall time.Duration) []string {
	var bad []string
	pipeline, _ := rec.find("pipeline")
	unattributed := mapWall - (pipeline.dur() - rec.selfTime(pipeline))
	if limit := max(mapWall/50, unattributedFloor); unattributed > limit {
		bad = append(bad, fmt.Sprintf("attribution: %v of the timed %v lies outside every stage span (limit %v)", unattributed, mapWall, limit))
	}
	if probes, ok := rec.find("probes"); ok && probes.start < pipeline.end {
		bad = append(bad, fmt.Sprintf("attribution: probes began at %v, before the timed region ended at %v", probes.start, pipeline.end))
	}
	return bad
}

func writeAndValidateTrace(rec *recorder, path string, workload int) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	if err := rec.writeTrace(path, workload); err != nil {
		return err
	}
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	stats, err := obs.ValidateTrace(f)
	if err != nil {
		return err
	}
	if stats.Spans != len(rec.spans) {
		return fmt.Errorf("%s holds %d spans, recorded %d", path, stats.Spans, len(rec.spans))
	}
	return nil
}
