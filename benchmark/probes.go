package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"slices"

	"snnmap/internal/cache"
	"snnmap/internal/curve"
	"snnmap/internal/mapping"
	"snnmap/internal/metrics"
	"snnmap/internal/noc"
	"snnmap/internal/toposort"
)

// seqPrefix names the spans of the workers=1 scaling probe.
const seqPrefix = "seq."

// runProbes runs, after the timed region of a traced repetition, the extra
// calls that split a stage into its kernels or measure a path the pipeline
// does not take. Each is its own span under "probes". It returns the
// consistency checks that failed.
func runProbes(w *workload, st *state, r recomputed, out string, m map[string]float64) []string {
	defer st.rec.span("probes")()
	var bad []string
	fail := func(format string, args ...any) { bad = append(bad, fmt.Sprintf(format, args...)) }
	p, mesh := st.pcn, st.mesh

	// HSC's two kernels, standalone.
	end := st.rec.span("toposort.sort")
	toposort.Sort(p)
	end()
	end = st.rec.span("curve.points")
	curve.Hilbert{}.Points(mesh.Rows, mesh.Cols)
	end()

	// FD's O(E) build: one sweep from a fresh initial placement costs the
	// force and queue construction plus 1/iterations of the sweeping.
	pl, err := mapping.InitialPlacementWorkers(p, mesh, curve.Hilbert{}, st.defects, st.cons, st.workers)
	if err == nil {
		cfg := st.fdConfig()
		cfg.MaxIterations = 1
		end = st.rec.span("mapping.fd_build")
		_, err = mapping.Finetune(p, pl, cfg)
		end()
	}
	if err != nil {
		fail("fd_build probe: %v", err)
	}

	// Evaluate's edge walk without the congestion grid, then the grid alone.
	end = st.rec.span("metrics.evaluate_skipcong")
	skip := metrics.Evaluate(p, st.pl, cost, metrics.Options{Workers: st.workers, Congestion: metrics.CongestionSkip})
	end()
	if skip.Energy != st.summary.Energy || skip.AvgLatency != st.summary.AvgLatency {
		fail("Evaluate without congestion gave energy %.17g, latency %.17g; with it %.17g, %.17g",
			skip.Energy, skip.AvgLatency, st.summary.Energy, st.summary.AvgLatency)
	}
	stride, visits := int64(1), r.visits
	if r.bboxWork > evaluateExactWorkLimit {
		stride, visits = congestionStride(p.NumEdges()), r.sampledVisits
	}
	end = st.rec.span("metrics.congestion_grid")
	grid := metrics.CongestionGrid(p, st.pl, int(stride), st.workers)
	end()
	var total kahan
	for _, v := range grid {
		total.add(v)
	}
	if d := relDiff(total.value(), visits); !(d <= tolerance) {
		fail("congestion grid sums to %.17g, Σ w·(d+1) over its edges is %.17g (rel %.3g)", total.value(), visits, d)
	}

	if st.sim != nil {
		shards := noc.ClampShards(min(runtime.NumCPU(), 4), mesh.Rows)
		end = st.rec.span("noc.simulate_sharded")
		sharded, err := noc.Simulate(p, st.pl, nocConfig(shards))
		end()
		switch {
		case err != nil:
			fail("sharded NoC probe: %v", err)
		case sharded.Delivered != st.sim.Delivered || sharded.Cycles != st.sim.Cycles || sharded.Energy != st.sim.Energy:
			fail("NoC at %d shards delivered %d in %d cycles, at 1 shard %d in %d", shards, sharded.Delivered, sharded.Cycles, st.sim.Delivered, st.sim.Cycles)
		}
	}

	if w.cacheProbe {
		if err := probeCache(st, out, m); err != nil {
			fail("cache probe: %v", err)
		}
	}

	if st.workers > 1 {
		seq := &state{
			seed: st.seed, workers: 1, rec: st.rec, spanPrefix: seqPrefix,
			net: st.net, graph: st.graph, neuronsPerCore: st.neuronsPerCore,
			mesh: st.mesh, defects: st.defects, cons: st.cons,
		}
		if err := runPipeline(w, seq); err != nil {
			fail("workers=1 probe: %v", err)
		} else if seq.summary != st.summary {
			fail("workers=1 gives %v, workers=%d gives %v", seq.summary, st.workers, st.summary)
		}
	}
	return bad
}

// probeCache maps the PCN through a fresh on-disk cache twice: the first
// call misses and stores, the second is served from disk.
func probeCache(st *state, out string, m map[string]float64) error {
	dir, err := os.MkdirTemp(out, "cache-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	c, err := cache.New(cache.Config{Dir: dir})
	if err != nil {
		return err
	}
	fd := st.fdConfig()
	cfg := mapping.Config{Curve: curve.Hilbert{}, FD: &fd, Workers: st.workers, Defects: st.defects, Constraints: st.cons, Cache: c}

	end := st.rec.span("cache.cold_map")
	cold, err := mapping.MapContext(context.Background(), st.pcn, st.mesh, cfg)
	end()
	if err != nil {
		return err
	}
	end = st.rec.span("cache.warm_map")
	warm, err := mapping.MapContext(context.Background(), st.pcn, st.mesh, cfg)
	end()
	if err != nil {
		return err
	}
	if !slices.Equal(warm.Placement.PosOf, cold.Placement.PosOf) {
		return fmt.Errorf("warm placement differs from cold")
	}
	s := c.Stats()
	m["cache.hits"] = float64(s.PartitionHits + s.InitialHits + s.ResultHits + s.MetricsHits)
	m["cache.misses"] = float64(s.PartitionMisses + s.InitialMisses + s.ResultMisses + s.MetricsMisses)
	if s.ResultHits != 1 {
		return fmt.Errorf("second MapContext made %d result hits, want 1", s.ResultHits)
	}
	return nil
}
