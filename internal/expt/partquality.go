package expt

import (
	"fmt"
	"io"
	"text/tabwriter"
	"time"

	"snnmap/internal/curve"
	"snnmap/internal/mapping"
	"snnmap/internal/metrics"
	"snnmap/internal/pcn"
)

// PartQuality compares the flat Algorithm 1 partitioner against the
// multilevel coarsen–partition–uncoarsen scheme on every workload of the
// scale tier. The first table reports partition structure (cluster count,
// cut weight, internalized traffic, partition time, and whether the flat
// fallback fired); the second uses the paper's §3.3 placement metrics as
// the quality oracle: each PCN is placed with the proposed HSC curve on its
// own mesh and scored with metrics.Evaluate, so cut reductions are tied to
// the downstream energy they actually buy.
func PartQuality(w io.Writer, scale Scale, opts RunOptions) error {
	opts = opts.withDefaults()
	mlOpts := opts.Multilevel
	if mlOpts == nil {
		mlOpts = pcn.DefaultMultilevel()
		mlOpts.Workers = opts.Workers
	}

	type row struct {
		name                   string
		flat, ml               *pcn.PCN
		stats                  pcn.MultilevelStats
		flatElapsed, mlElapsed time.Duration
	}
	var rows []row
	for _, wl := range Workloads(scale) {
		start := time.Now()
		flat, _, err := wl.Build()
		if err != nil {
			return fmt.Errorf("build %s: %w", wl.Name, err)
		}
		flatElapsed := time.Since(start)

		cfg := pcn.DefaultPartition()
		cfg.Multilevel = mlOpts
		start = time.Now()
		ml, stats, err := pcn.ExpandMultilevel(wl.Net(), cfg)
		if err != nil {
			return fmt.Errorf("multilevel %s: %w", wl.Name, err)
		}
		rows = append(rows, row{wl.Name, flat, ml, stats, flatElapsed, time.Since(start)})
	}

	fmt.Fprintf(w, "Partition structure (multilevel: grain ≤%d, coarsest ≥%d, workers %d)\n",
		mlOpts.Grain, mlOpts.CoarsestSize, mlOpts.Workers)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Workload\tClusters\tCut(flat)\tCut(ml)\tΔCut\tInternal(ml)\tLevels\tMoves\tTime(flat)\tTime(ml)\tFallback")
	for _, r := range rows {
		cutFlat, cutML := r.stats.CutFlat, r.stats.CutMultilevel
		delta := 0.0
		if cutFlat > 0 {
			delta = 100 * (cutML - cutFlat) / cutFlat
		}
		fallback := ""
		if r.stats.UsedFlat {
			fallback = "flat"
		}
		fmt.Fprintf(tw, "%s\t%d→%d\t%.4g\t%.4g\t%+.1f%%\t%.4g\t%d\t%d\t%s\t%s\t%s\n",
			r.name, r.flat.NumClusters, r.ml.NumClusters, cutFlat, cutML, delta,
			r.ml.InternalTraffic, r.stats.Levels, r.stats.Moves,
			fmtDuration(r.flatElapsed), fmtDuration(r.mlElapsed), fallback)
	}
	if err := tw.Flush(); err != nil {
		return err
	}

	fmt.Fprintln(w)
	fmt.Fprintln(w, "Quality oracle: HSC placement scored on the §3.3 metrics (ml normalized to flat)")
	tw = tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Workload\tEnergy\tAvgLat\tMaxLat\tAvgCon\tMaxCon")
	for _, r := range rows {
		flatSum, err := oracleScore(r.flat, opts)
		if err != nil {
			return fmt.Errorf("oracle %s (flat): %w", r.name, err)
		}
		mlSum, err := oracleScore(r.ml, opts)
		if err != nil {
			return fmt.Errorf("oracle %s (multilevel): %w", r.name, err)
		}
		n := mlSum.Normalize(flatSum)
		fmt.Fprintf(tw, "%s\t%.3f\t%.3f\t%.3f\t%.3f\t%.3f\n",
			r.name, n.Energy, n.AvgLatency, n.MaxLatency, n.AvgCongestion, n.MaxCongestion)
	}
	return tw.Flush()
}

// oracleScore places a PCN with the Hilbert curve on its own right-sized
// mesh and evaluates the §3.3 metrics.
func oracleScore(p *pcn.PCN, opts RunOptions) (metrics.Summary, error) {
	pl, err := mapping.InitialPlacement(p, MeshFor(p.NumClusters), curve.Hilbert{})
	if err != nil {
		return metrics.Summary{}, err
	}
	return metrics.Evaluate(p, pl, opts.Cost, metrics.Options{Workers: opts.Workers}), nil
}
