// Command snnmap maps one SNN workload onto neuromorphic hardware and
// reports the placement quality metrics, optionally cross-checking with the
// spike-level NoC simulator, rendering placement/congestion views, and
// exporting artifacts.
//
// Usage:
//
//	snnmap -workload LeNet-MNIST
//	snnmap -workload ResNet -method Proposed -budget 1m
//	snnmap -workload CNN_16M -method TrueNorth
//	snnmap -workload LeNet-MNIST -sim -render -multicast
//	snnmap -workload LeNet-ImageNet -faults uniform:dead=0.05,links=0.02,seed=7 -sim
//	snnmap -workload LeNet-MNIST -faults defects.json -sim
//	snnmap -workload MobileNet -save-placement mobilenet.plc -export-dot mobilenet.dot
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"snnmap/internal/cache"
	"snnmap/internal/codec"
	"snnmap/internal/expt"
	"snnmap/internal/fsx"
	"snnmap/internal/hw"
	"snnmap/internal/mapping"
	"snnmap/internal/metrics"
	"snnmap/internal/noc"
	"snnmap/internal/obs"
	"snnmap/internal/pcn"
	"snnmap/internal/place"
	"snnmap/internal/snn"
	"snnmap/internal/viz"
)

func main() {
	var (
		workload  = flag.String("workload", "LeNet-MNIST", "Table 3 workload name ("+strings.Join(expt.WorkloadNames(), ", ")+")")
		netFile   = flag.String("net", "", "JSON workload description file (overrides -workload; see internal/codec net schema)")
		method    = flag.String("method", "Proposed", "mapping method (Random, TrueNorth, DFSynthesizer, PSO, Proposed, HSC, ZigZag, Circle, ...)")
		seed      = flag.Int64("seed", 1, "seed for randomized methods")
		budget    = flag.Duration("budget", time.Minute, "wall-clock budget (0 = unlimited)")
		sim       = flag.Bool("sim", false, "replay the traffic through the NoC simulator (small workloads)")
		faults    = flag.String("faults", "", "defect map: a JSON file path, or a spec like uniform:dead=0.05,links=0.02,seed=7 / clustered:dead=0.1,blobs=3 / lines:rows=1 (grows the mesh for headroom)")
		render    = flag.Bool("render", false, "render the layer map and congestion heatmap (small meshes)")
		multicast = flag.Bool("multicast", false, "also evaluate the multicast tree-routing energy model")
		savePCN   = flag.String("save-pcn", "", "write the partitioned cluster network (binary) to this file")
		savePlace = flag.String("save-placement", "", "write the placement (binary) to this file")
		exportDot = flag.String("export-dot", "", "write the PCN as Graphviz DOT to this file")
		exportCSV = flag.String("export-csv", "", "write the placement as CSV to this file")
		workers   = flag.Int("workers", runtime.GOMAXPROCS(0), "goroutines for FD fine-tuning (its O(E) build phases) and metrics evaluation (1 = sequential; results are bit-identical at any count)")
		ckptPath  = flag.String("checkpoint", "", "periodically write the fine-tuning state (self-contained snapshot, atomic replace) to this file; continue later with -resume")
		ckptEvery = flag.Int("checkpoint-every", 32, "iterations between -checkpoint snapshots (at least 1)")
		resume    = flag.String("resume", "", "resume fine-tuning from a snapshot file written by -checkpoint (bit-identical to the uninterrupted run, at any -workers count)")
		spareRows = flag.Int("spare-rows", 0, "reserve this many extra mesh rows as hot spares for wholesale row-shift repair (grows the mesh; placement and fine-tuning leave them empty; TrueNorth, DFSynthesizer and PSO refuse it)")
		cacheDir  = flag.String("cache-dir", "", "content-addressed artifact cache directory: serves the mapping result (placement + fine-tuning statistics) and the metrics from prior runs with identical inputs (warm results are bit-identical to cold; mapping results are only cached with -budget 0)")
	)
	var cli obs.CLI
	cli.Register(flag.CommandLine)
	flag.Parse()

	o, stopObs, err := cli.Start(os.Stderr)
	if err != nil {
		fatal(err)
	}
	obsStop = stopObs

	if *ckptPath != "" && *ckptEvery < 1 {
		// The library reads Interval 0 as "no periodic snapshots"; from the
		// CLI that would leave a long run with nothing to resume from.
		fatal(fmt.Errorf("-checkpoint-every %d: want at least 1 iteration between -checkpoint snapshots", *ckptEvery))
	}

	var artifacts *cache.Cache
	if *cacheDir != "" {
		if artifacts, err = cache.New(cache.Config{Dir: *cacheDir}); err != nil {
			fatal(err)
		}
	}

	var net *snn.Net
	if *netFile != "" {
		f, err := os.Open(*netFile)
		if err != nil {
			fatal(err)
		}
		net, err = codec.ReadNetJSON(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
	} else {
		wl, err := expt.WorkloadByName(*workload)
		if err != nil {
			fatal(err)
		}
		net = wl.Net()
	}
	// Expand directly (rather than via the workload cache) so the
	// partitioner sees the observer and the trace covers this phase.
	cfg := pcn.DefaultPartition()
	cfg.Obs = o
	p, err := pcn.Expand(net, cfg)
	if err != nil {
		fatal(err)
	}
	mesh := hw.MeshFor(p.NumClusters)
	fmt.Printf("%s: %d neurons, %d synapses → %d clusters, %d connections on %v\n",
		net.Name, net.NumNeurons(), net.NumSynapses(), p.NumClusters, p.NumEdges(), mesh)

	m, err := expt.MethodByName(*method)
	if err != nil {
		fatal(err)
	}
	var defects *hw.DefectMap
	specFaults := *faults != "" && !fileExists(*faults)
	if *faults != "" {
		if defects, mesh, err = loadDefects(*faults, mesh, p.NumClusters); err != nil {
			fatal(err)
		}
		fmt.Printf("defects: %d dead cores, %d failed links on %v\n",
			defects.NumDead(), defects.NumFailedLinks(), mesh)
	}
	cons := hw.Constraints{SpareRows: *spareRows}
	if *spareRows > mesh.Rows {
		// A spare for every row is already full redundancy; more would only
		// grow the mesh without bound.
		fatal(fmt.Errorf("-spare-rows %d exceeds the %d rows of the %v mesh", *spareRows, mesh.Rows, mesh))
	}
	if *spareRows > 0 {
		if *faults != "" && !specFaults {
			fatal(fmt.Errorf("-spare-rows cannot grow the fixed mesh of a defect-map file; use a defect spec instead"))
		}
		// Grow the mesh so the reserved bottom rows do not eat into the
		// workload's capacity; re-inject spec faults on the grown mesh.
		mesh = hw.MustMesh(mesh.Rows+*spareRows, mesh.Cols)
		if specFaults {
			if defects, err = hw.ParseDefectSpec(mesh, *faults); err != nil {
				fatal(err)
			}
		}
		fmt.Printf("spare rows: %d reserved (mesh grown to %v)\n", *spareRows, mesh)
	}
	var ckptCfg *mapping.CheckpointConfig
	snapsWritten := 0
	if *ckptPath != "" {
		ckptCfg = &mapping.CheckpointConfig{Interval: *ckptEvery, Fn: func(s *mapping.Snapshot) error {
			snapsWritten++
			return fsx.WriteAtomic(*ckptPath, func(w io.Writer) error { return codec.WriteSnapshot(w, s) })
		}}
	}
	opts := expt.RunOptions{Seed: *seed, Budget: *budget, Defects: defects, Constraints: cons,
		Workers: *workers, Checkpoint: ckptCfg, Obs: o}
	if artifacts != nil {
		// Only assign on the concrete path: a typed-nil interface would read
		// as a configured cache downstream.
		opts.Cache = artifacts
	}
	var pl *place.Placement
	if *resume != "" {
		if pl, p, mesh, err = resumeRun(*resume, p, defects, cons, ckptCfg, *budget, *workers, o); err != nil {
			fatal(err)
		}
	} else {
		var stats expt.MethodStats
		pl, stats, err = m.Run(p, mesh, opts)
		// Spec-based faults: grow the mesh one row/column and re-inject until
		// the workload fits around the dead cores (preserving the spare-row
		// reservation on top of the square usable region), up to 4× the first
		// side. A spec that kills every core or row gains no healthy core by
		// growing, so that stops it at once with the ErrUnplaceable error.
		for limit := 4 * mesh.Cols; errors.Is(err, mapping.ErrUnplaceable) && specFaults; {
			side := mesh.Cols + 1
			if side > limit {
				break
			}
			grown := hw.MustMesh(side+*spareRows, side)
			d, perr := hw.ParseDefectSpec(grown, *faults)
			if perr != nil {
				fatal(perr)
			}
			if d.HealthyCores() <= defects.HealthyCores() {
				break
			}
			mesh, defects, opts.Defects = grown, d, d
			pl, stats, err = m.Run(p, mesh, opts)
		}
		if err != nil {
			fatal(err)
		}
		es := ""
		if stats.EarlyStopped {
			es = " (early stop)"
		}
		fmt.Printf("%s mapped in %v%s\n", m.Name, stats.Elapsed, es)
	}
	if *ckptPath != "" && snapsWritten == 0 {
		if artifacts != nil && artifacts.Stats().ResultHits > 0 {
			fmt.Println("no checkpoint written: the mapping result was served from -cache-dir, so fine-tuning did not run")
		} else {
			fmt.Printf("no checkpoint written: fine-tuning finished before the first %d-iteration interval\n", *ckptEvery)
		}
	}

	cost := hw.DefaultCostModel()
	mopts := metrics.Options{Workers: *workers, Obs: o}
	var sum metrics.Summary
	if artifacts != nil {
		sum, _ = artifacts.Evaluate(p, pl, cost, mopts)
	} else {
		sum = metrics.Evaluate(p, pl, cost, mopts)
	}
	fmt.Printf("metrics: %s\n", sum)
	if defects != nil {
		if err := pl.ValidateDefects(defects); err != nil {
			fatal(err)
		}
		fmt.Printf("degradation: %s\n", metrics.EvaluateDegradation(p, pl, defects))
	}

	if *multicast {
		mc := metrics.MulticastEnergy(p, pl, cost)
		fmt.Printf("multicast: energy=%.4g (unicast %.4g, saving %.1f%%)\n",
			mc.Energy, mc.UnicastEnergy, 100*mc.Saving())
	}

	if *sim {
		res, err := noc.Simulate(p, pl, noc.Config{
			SpikesPerUnit: expt.SimSpikesPerUnit(p.TotalWeight()),
			Defects:       defects,
			Obs:           o,
		})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("NoC simulation: %d spikes delivered in %d cycles; energy=%.4g avgLat=%.2f cycles maxLat=%d avgHops=%.2f maxQueue=%d\n",
			res.Delivered, res.Cycles, res.Energy, res.AvgLatencyCycles, res.MaxLatencyCycles, res.AvgHops, res.MaxQueueLen)
		if defects != nil {
			fmt.Printf("NoC degradation: delivered %.4f of %d injected spikes (%d dropped: %d at setup, %d in network; %d detours)\n",
				res.DeliveredFraction(), res.Injected, res.Dropped,
				res.Stats.SetupDrops, res.Stats.NetworkDrops, res.Stats.Detours)
		}
	}

	if *render {
		if mesh.Cores() > 10000 {
			fmt.Fprintln(os.Stderr, "snnmap: mesh too large to render; skipping")
		} else {
			fmt.Println("\nlayer map (which layer occupies each core):")
			if err := viz.LayerMap(os.Stdout, p, pl); err != nil {
				fatal(err)
			}
			fmt.Println("\ncongestion heatmap (Eq. 13):")
			grid := metrics.CongestionGrid(p, pl, 1, *workers)
			if err := viz.Heatmap(os.Stdout, grid, mesh.Rows, mesh.Cols); err != nil {
				fatal(err)
			}
		}
	}

	if artifacts != nil {
		s := artifacts.Stats()
		fmt.Printf("cache: hits/misses result %d/%d metrics %d/%d; corrupt %d\n",
			s.ResultHits, s.ResultMisses, s.MetricsHits, s.MetricsMisses, s.Corrupt)
	}

	writeFile(*savePCN, func(w io.Writer) error { return codec.WritePCN(w, p) })
	writeFile(*savePlace, func(w io.Writer) error { return codec.WritePlacement(w, pl) })
	writeFile(*exportDot, func(w io.Writer) error { return codec.WriteDOT(w, p, 0) })
	writeFile(*exportCSV, func(w io.Writer) error { return codec.WritePlacementCSV(w, pl) })

	obsStop = nil
	if err := stopObs(); err != nil {
		fatal(err)
	}
	if cli.TraceOut != "" {
		fmt.Printf("wrote %s\n", cli.TraceOut)
	}
}

// loadDefects resolves the -faults flag: an existing file is read as a
// defect-map JSON (its mesh replaces the workload's), anything else is parsed
// as an injection spec on a mesh pre-grown with dead-core headroom.
func loadDefects(arg string, mesh hw.Mesh, clusters int) (*hw.DefectMap, hw.Mesh, error) {
	if fileExists(arg) {
		f, err := os.Open(arg)
		if err != nil {
			return nil, mesh, err
		}
		defer f.Close()
		d, err := hw.ReadDefectMap(f)
		if err != nil {
			return nil, mesh, err
		}
		if d.HealthyCores() < clusters {
			return nil, mesh, fmt.Errorf("defect map %s leaves %d healthy cores for %d clusters", arg, d.HealthyCores(), clusters)
		}
		return d, d.Mesh(), nil
	}
	// Spec: give the mesh headroom for the requested dead fraction before
	// injecting, so typical runs place without growing.
	if frac, ok := specDeadFrac(arg); ok && frac > 0 {
		grown := expt.MeshForHealthy(clusters, frac)
		if grown.Cores() > mesh.Cores() {
			mesh = grown
		}
	}
	d, err := hw.ParseDefectSpec(mesh, arg)
	return d, mesh, err
}

// specDeadFrac extracts the dead= fraction from an injection spec, if any.
func specDeadFrac(spec string) (float64, bool) {
	_, rest, ok := strings.Cut(spec, ":")
	if !ok {
		return 0, false
	}
	for _, kv := range strings.Split(rest, ",") {
		if v, ok := strings.CutPrefix(kv, "dead="); ok {
			var f float64
			if _, err := fmt.Sscanf(v, "%g", &f); err == nil {
				return f, true
			}
		}
	}
	return 0, false
}

// resumeRun continues fine-tuning from a snapshot file: the snapshot's
// embedded PCN (if any) replaces the workload-derived one, the mesh comes
// from the snapshot's placement, and the run proceeds bit-identically to the
// uninterrupted original at any -workers count.
func resumeRun(path string, p *pcn.PCN, defects *hw.DefectMap, cons hw.Constraints, ckpt *mapping.CheckpointConfig, budget time.Duration, workers int, o *obs.Observer) (*place.Placement, *pcn.PCN, hw.Mesh, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, hw.Mesh{}, err
	}
	snap, err := codec.ReadSnapshot(f)
	f.Close()
	if err != nil {
		return nil, nil, hw.Mesh{}, err
	}
	if snap.PCN != nil {
		p = snap.PCN
	}
	mesh := snap.Placement.Mesh
	if defects != nil && defects.Mesh() != mesh {
		return nil, nil, hw.Mesh{}, fmt.Errorf("defect map mesh %v does not match snapshot mesh %v", defects.Mesh(), mesh)
	}
	pot, err := mapping.PotentialByName(snap.Potential, hw.DefaultCostModel())
	if err != nil {
		return nil, nil, hw.Mesh{}, err
	}
	start := time.Now()
	pl, stats, err := mapping.ResumeFinetune(context.Background(), p, snap, mapping.FDConfig{
		Potential:   pot,
		Budget:      budget,
		Defects:     defects,
		Constraints: cons,
		Workers:     workers,
		Checkpoint:  ckpt,
		Obs:         o,
	})
	if err != nil {
		return nil, nil, hw.Mesh{}, err
	}
	fmt.Printf("resumed %s from iteration %d: %d iterations total, converged=%v, in %v (cumulative %v)\n",
		path, snap.Stats.Iterations, stats.Iterations, stats.Converged, time.Since(start).Round(time.Millisecond), stats.Elapsed.Round(time.Millisecond))
	return pl, p, mesh, nil
}

func fileExists(path string) bool {
	st, err := os.Stat(path)
	return err == nil && !st.IsDir()
}

// writeFile writes one output artifact with crash-safe replace semantics
// (temp file + fsync + rename; see internal/fsx): a failed write leaves any
// previous file at path untouched rather than a truncated one.
func writeFile(path string, write func(io.Writer) error) {
	if path == "" {
		return
	}
	if err := fsx.WriteAtomic(path, write); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s\n", path)
}

// obsStop flushes the trace/profile outputs before a fatal exit so a
// failed run still leaves a valid (truncated) trace and profile behind.
var obsStop func() error

func fatal(err error) {
	if obsStop != nil {
		obsStop()
	}
	fmt.Fprintln(os.Stderr, "snnmap:", err)
	os.Exit(1)
}
