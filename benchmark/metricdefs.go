package main

// metricDef names one reported metric. BENCHMARK.json carries the same
// tables for the acceptance driver; TestBenchmarkJSON keeps the two equal.
type metricDef struct {
	name, unit string
	// higher is true when a larger value is better.
	higher bool
	// bound is the share of the baseline median an end-to-end metric may
	// worsen by before it counts as a regression (per-layer metrics carry
	// none).
	bound float64
}

// Quality metrics are deterministic at a fixed seed; their bounds only
// have to cover the seed-to-seed spread of the generated inputs
// (graph512k's random graph, dnn268m_faulty's defect map). map_wall_s has
// the widest bound the driver allows: on a shared host the cache-resident
// cnn268m swings by 20 % for half a minute at a time when a neighbour
// thrashes the last-level cache, and dnn4b drifts by 6 % over an hour.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", bound: 0.25},
	{name: "map_wall_s", unit: "s", bound: 0.25},
	{name: "peak_rss_bytes", unit: "B", bound: 0.10},
	{name: "energy", unit: "G_model_units", bound: 0.05},
	{name: "avg_latency", unit: "model_units", bound: 0.05},
	{name: "max_latency", unit: "model_units", bound: 0.10},
	{name: "avg_congestion", unit: "spikes/router", bound: 0.05},
	{name: "max_congestion", unit: "spikes/router", bound: 0.15},
}

// setupFloorS is the absolute slack -selfcheck grants setup_s on top of its
// relative bound: on the layer-spec workloads set-up is a few milliseconds
// of process start, where scheduler noise exceeds any share of the value.
const setupFloorS = 0.05

var perLayer = []metricDef{
	// internal/snn: input generation, untimed.
	{name: "snn.build_s", unit: "s"},
	{name: "snn.neurons", unit: "count"},
	{name: "snn.synapses", unit: "count"},

	// internal/pcn
	{name: "pcn.expand_s", unit: "s"},
	{name: "pcn.expand_alloc_bytes", unit: "B"},
	{name: "pcn.expand_ns_per_edge", unit: "ns"},
	{name: "pcn.partition_s", unit: "s"},
	{name: "pcn.partition_alloc_bytes", unit: "B"},
	{name: "pcn.levels", unit: "count"},
	{name: "pcn.refine_moves", unit: "count"},
	{name: "pcn.clusters", unit: "count"},
	{name: "pcn.edges", unit: "count"},
	{name: "pcn.cut_weight", unit: "model_units"},
	{name: "pcn.cut_vs_flat", unit: "ratio"},

	// internal/toposort, internal/curve: kernel probes.
	{name: "toposort.sort_s", unit: "s"},
	{name: "curve.points_s", unit: "s"},

	// internal/mapping
	{name: "mapping.hsc_s", unit: "s"},
	{name: "mapping.fd_s", unit: "s"},
	{name: "mapping.fd_alloc_bytes", unit: "B"},
	{name: "mapping.fd_build_s", unit: "s"},
	{name: "mapping.fd_sweep_s", unit: "s"},
	{name: "mapping.fd_iterations", unit: "count"},
	{name: "mapping.fd_swaps", unit: "count"},
	{name: "mapping.fd_tension_checks", unit: "count"},
	{name: "mapping.fd_converged", unit: "count", higher: true},
	{name: "mapping.fd_energy_initial", unit: "G_model_units"},
	{name: "mapping.fd_energy_final", unit: "G_model_units"},
	{name: "mapping.fd_ns_per_tension_check", unit: "ns"},
	{name: "mapping.fd_s_per_iteration", unit: "s"},
	{name: "mapping.remap_rows_s", unit: "s"},
	{name: "mapping.remap_s", unit: "s"},
	{name: "mapping.remap_moved", unit: "count"},
	{name: "mapping.remap_delta_energy", unit: "G_model_units"},

	// internal/metrics
	{name: "metrics.evaluate_s", unit: "s"},
	{name: "metrics.evaluate_alloc_bytes", unit: "B"},
	{name: "metrics.evaluate_ns_per_edge", unit: "ns"},
	{name: "metrics.evaluate_skipcong_s", unit: "s"},
	{name: "metrics.congestion_grid_s", unit: "s"},
	{name: "metrics.multicast_s", unit: "s"},
	{name: "metrics.multicast_saving", unit: "ratio", higher: true},

	// internal/noc
	{name: "noc.simulate_s", unit: "s"},
	{name: "noc.alloc_bytes", unit: "B"},
	{name: "noc.host_ns_per_traversal", unit: "ns"},
	{name: "noc.injected", unit: "count"},
	{name: "noc.delivered", unit: "count", higher: true},
	{name: "noc.dropped", unit: "count"},
	{name: "noc.cycles", unit: "count"},
	{name: "noc.wire_traversals", unit: "count"},
	{name: "noc.avg_latency_cycles", unit: "cycles"},
	{name: "noc.max_latency_cycles", unit: "cycles"},
	{name: "noc.max_queue_len", unit: "count"},
	{name: "noc.sim_energy", unit: "G_model_units"},
	{name: "noc.sharded_speedup", unit: "ratio", higher: true},

	// internal/hw
	{name: "hw.inject_s", unit: "s"},
	{name: "hw.dead_cores", unit: "count"},

	// internal/cache: probe on dnn268m.
	{name: "cache.cold_map_s", unit: "s"},
	{name: "cache.warm_map_s", unit: "s"},
	{name: "cache.hits", unit: "count", higher: true},
	{name: "cache.misses", unit: "count"},

	// The driver itself, from the timed repetitions.
	{name: "driver.reps", unit: "count", higher: true},
	{name: "driver.workers", unit: "count"},
	{name: "driver.gomaxprocs", unit: "count"},
	{name: "driver.warmup_s", unit: "s"},
	{name: "driver.cpu_s", unit: "s"},
	{name: "driver.sys_cpu_s", unit: "s"},
	{name: "driver.minor_faults", unit: "count"},
	{name: "driver.alloc_bytes", unit: "B"},
	{name: "driver.mallocs", unit: "count"},
	{name: "driver.map_wall_iqr_frac", unit: "ratio"},
	{name: "driver.trace_overhead_frac", unit: "ratio"},

	// Scaling of each layer's parallel path, from a workers=1 probe of the
	// same pipeline in the traced repetition of a parallel workload.
	{name: "driver.par_speedup", unit: "ratio", higher: true},
	{name: "pcn.expand_par_speedup", unit: "ratio", higher: true},
	{name: "mapping.hsc_par_speedup", unit: "ratio", higher: true},
	{name: "mapping.fd_par_speedup", unit: "ratio", higher: true},
	{name: "metrics.evaluate_par_speedup", unit: "ratio", higher: true},
}

// qualityMetrics are the five placement-quality values of Eqs. 9-14; they
// are end-to-end metrics and, at seed 1, golden values.
var qualityMetrics = []string{"energy", "avg_latency", "max_latency", "avg_congestion", "max_congestion"}

// goldenCounts are the exact counts golden.json pins beside the quality
// metrics. All of them are outputs of the timed pipeline, so every
// repetition reports them.
var goldenCounts = []string{
	"pcn.clusters", "pcn.edges", "mapping.fd_iterations", "mapping.fd_swaps",
	"noc.injected", "noc.delivered", "noc.dropped", "noc.cycles",
	"noc.wire_traversals", "noc.avg_latency_cycles", "noc.max_latency_cycles",
	"noc.max_queue_len", "noc.sim_energy",
}
