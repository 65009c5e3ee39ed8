package expt

import (
	"fmt"
	"io"
	"math/rand"
	"text/tabwriter"
	"time"

	"snnmap/internal/analysis"
	"snnmap/internal/curve"
	"snnmap/internal/hw"
	"snnmap/internal/mapping"
	"snnmap/internal/metrics"
	"snnmap/internal/pcn"
)

// Table1 prints the platform-capacity table (Table 1).
func Table1(w io.Writer) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Platform\tNeurons/core\tSynapses/core\tCores/chip\tChips/system\tSystem neurons\tSystem synapses")
	for _, p := range hw.Platforms() {
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%d\t%s\t%s\n",
			p.Name, p.NeuronsPerCore, p.SynapsesPerCore, p.CoresPerChip, p.ChipsPerSystem,
			humanCount(p.MaxNeurons()), humanCount(p.MaxSynapses()))
	}
	tw.Flush()
}

// Table2 prints the target hardware parameters (Table 2).
func Table2(w io.Writer) {
	c := hw.DefaultConstraints()
	m := hw.DefaultCostModel()
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Parameter\tValue")
	fmt.Fprintf(tw, "CON_npc\t%d\n", c.NeuronsPerCore)
	fmt.Fprintf(tw, "CON_spc\t%d\n", c.SynapsesPerCore)
	fmt.Fprintf(tw, "EN_r\t%g\n", m.RouterEnergy)
	fmt.Fprintf(tw, "EN_w\t%g\n", m.WireEnergy)
	fmt.Fprintf(tw, "L_r\t%g\n", m.RouterLatency)
	fmt.Fprintf(tw, "L_w\t%g\n", m.WireLatency)
	tw.Flush()
}

// Table3 builds every workload in the scale tier and prints measured
// graph sizes next to the published row.
func Table3(w io.Writer, scale Scale) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Application\tNeurons\tSynapses\tClusters\tConnections\tHardware\t(paper: neurons/synapses/clusters/connections/mesh)")
	for _, wl := range Workloads(scale) {
		p, mesh, err := wl.Build()
		if err != nil {
			return fmt.Errorf("build %s: %w", wl.Name, err)
		}
		net := wl.Net()
		fmt.Fprintf(tw, "%s\t%s\t%s\t%d\t%s\t%v\t(%s/%s/%d/%s/%s)\n",
			wl.Name,
			humanCount(net.NumNeurons()), humanCount(net.NumSynapses()),
			p.NumClusters, humanCount(p.NumEdges()), mesh,
			humanCount(wl.Paper.Neurons), humanCount(wl.Paper.Synapses),
			wl.Paper.Clusters, humanCount(wl.Paper.Connections), wl.Paper.Mesh)
	}
	return tw.Flush()
}

// Fig6 reproduces the curve comparison of Figure 6: per-application curve
// costs (6.d) and the probability-cloud averages normalized to Hilbert
// (6.e; the paper reports Hilbert 1.0, ZigZag 2.63, Circle 6.33).
func Fig6(w io.Writer, seed int64) error {
	curves := []curve.Curve{curve.Hilbert{}, curve.ZigZag{}, curve.Circle{}}

	fmt.Fprintln(w, "Per-application curve cost (sum of weighted connection distances, normalized to Hilbert):")
	apps := []string{"LeNet-MNIST", "LeNet-ImageNet", "ResNet"}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Network\tHilbert\tZigZag\tCircle")
	// Full_connect_8_8 from the figure: cluster-level cost over the PCN.
	for _, app := range apps {
		wl, err := WorkloadByName(app)
		if err != nil {
			return err
		}
		p, mesh, err := wl.Build()
		if err != nil {
			return err
		}
		costs := map[string]float64{}
		for _, c := range curves {
			cost, err := analysis.CurveCost(c, p, p.NumClusters, mesh.Rows, mesh.Cols)
			if err != nil {
				return err
			}
			costs[c.Name()] = cost
		}
		norm, err := analysis.Normalize(costs, "hilbert")
		if err != nil {
			return err
		}
		fmt.Fprintf(tw, "%s\t%.2f\t%.2f\t%.2f\n", app, norm["hilbert"], norm["zigzag"], norm["circle"])
	}
	tw.Flush()

	fmt.Fprintln(w)
	fmt.Fprintln(w, "Probability cloud (ensembles of random local SNNs, normalized to Hilbert;")
	fmt.Fprintln(w, "the curve-cost gap grows with instance size — the paper's 8x8 illustration")
	fmt.Fprintln(w, "reports Hilbert 1.0, ZigZag 2.63, Circle 6.33 for its network-scale cloud):")
	tw = tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Ensemble\thilbert\tzigzag\tcircle")
	clouds := []struct {
		label string
		cfg   analysis.CloudConfig
	}{
		{"8x8 demo mesh", analysis.CloudConfig{}},
		{"32x32, 3% locality band", analysis.CloudConfig{MeshN: 32, MeshM: 32, Samples: 60, LocalityBand: 0.03, LongRangeFrac: 1e-6}},
		{"64x64, 2% locality band", analysis.CloudConfig{MeshN: 64, MeshM: 64, Samples: 40, LocalityBand: 0.02, LongRangeFrac: 1e-6}},
	}
	for _, cl := range clouds {
		rng := rand.New(rand.NewSource(seed))
		cloud, err := analysis.CloudCost(cl.cfg, curves, rng)
		if err != nil {
			return err
		}
		norm, err := analysis.Normalize(cloud, "hilbert")
		if err != nil {
			return err
		}
		fmt.Fprintf(tw, "%s\t%.2f\t%.2f\t%.2f\n", cl.label, norm["hilbert"], norm["zigzag"], norm["circle"])
	}
	return tw.Flush()
}

// Fig8 reproduces Figure 8: the ten methods a)–j) on one workload (ResNet
// in the paper), reporting the five metrics normalized to the random
// baseline plus the solve time.
func Fig8(w io.Writer, workload string, opts RunOptions) error {
	wl, err := WorkloadByName(workload)
	if err != nil {
		return err
	}
	p, mesh, err := buildFor(wl, opts)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Figure 8 on %s: %d clusters, %s mesh\n", wl.Name, p.NumClusters, mesh)
	rows, err := runMethods(wl.Name, p, mesh, Figure8Methods(), opts.withDefaults(), nil)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Method\tEnergy\tAvgLat\tMaxLat\tAvgCon\tMaxCon\tTime")
	for i, r := range rows {
		n := r.Norm
		fmt.Fprintf(tw, "%c) %s\t%.3f\t%.3f\t%.3f\t%.3f\t%.3f\t%s%s\n",
			'a'+i, r.Method, n.Energy, n.AvgLatency, n.MaxLatency, n.AvgCongestion, n.MaxCongestion,
			fmtDuration(r.Elapsed), esMark(r.EarlyStopped))
	}
	return tw.Flush()
}

// SweepRow is one (workload, method) result of the §5.3 comparison.
type SweepRow struct {
	Workload     string
	Clusters     int
	Method       string
	Elapsed      time.Duration
	EarlyStopped bool
	Metrics      metrics.Summary
	// Norm is Metrics normalized to the Random baseline of the same
	// workload.
	Norm metrics.Summary
}

// Sweep runs the §5.3 comparison lineup over every workload in the scale
// tier. progress (optional) receives one line per finished run; opts.Obs
// (optional) additionally receives a "sweep" progress stream counting
// finished (workload, method) runs.
func Sweep(scale Scale, opts RunOptions, progress io.Writer) ([]SweepRow, error) {
	opts = opts.withDefaults()
	var rows []SweepRow
	wls := Workloads(scale)
	methods := ComparisonMethods()
	total := int64(len(wls) * len(methods))
	var done int64
	for _, wl := range wls {
		p, mesh, err := buildFor(wl, opts)
		if err != nil {
			return nil, fmt.Errorf("build %s: %w", wl.Name, err)
		}
		wlRows, err := runMethods(wl.Name, p, mesh, methods, opts, func(r SweepRow) {
			done++
			opts.Obs.Progress("sweep", done, total)
			if progress != nil {
				fmt.Fprintf(progress, "# %-14s %-14s %10s%s  %s\n",
					r.Workload, r.Method, fmtDuration(r.Elapsed), esMark(r.EarlyStopped), r.Metrics)
			}
		})
		if err != nil {
			return nil, err
		}
		rows = append(rows, wlRows...)
	}
	return rows, nil
}

// runMethods runs each method on one workload's PCN, evaluates every
// placement, and normalizes each row to the first method's metrics. done
// (optional) receives each row as it finishes. opts must have its defaults
// applied.
func runMethods(workload string, p *pcn.PCN, mesh hw.Mesh, methods []Method, opts RunOptions, done func(SweepRow)) ([]SweepRow, error) {
	rows := make([]SweepRow, 0, len(methods))
	for _, m := range methods {
		pl, stats, err := m.Run(p, mesh, opts)
		if err != nil {
			return nil, fmt.Errorf("%s on %s: %w", m.Name, workload, err)
		}
		sum := metrics.Evaluate(p, pl, opts.Cost, metrics.Options{Workers: opts.Workers, Obs: opts.Obs})
		base := sum
		if len(rows) > 0 {
			base = rows[0].Metrics
		}
		r := SweepRow{
			Workload: workload, Clusters: p.NumClusters, Method: m.Name,
			Elapsed: stats.Elapsed, EarlyStopped: stats.EarlyStopped,
			Metrics: sum, Norm: sum.Normalize(base),
		}
		rows = append(rows, r)
		if done != nil {
			done(r)
		}
	}
	return rows, nil
}

// Fig9 prints the solve-time comparison (Figure 9) from sweep rows.
func Fig9(w io.Writer, rows []SweepRow) error {
	fmt.Fprintln(w, "Figure 9: algorithm execution time (ES = early stop at budget)")
	return pivot(w, rows, func(r SweepRow) string {
		return fmtDuration(r.Elapsed) + esMark(r.EarlyStopped)
	})
}

// Fig10 prints the energy comparison (Figure 10), normalized to Random.
func Fig10(w io.Writer, rows []SweepRow) error {
	fmt.Fprintln(w, "Figure 10: energy consumption (normalized to Random)")
	return pivot(w, rows, func(r SweepRow) string {
		return fmt.Sprintf("%.3f%s", r.Norm.Energy, esMark(r.EarlyStopped))
	})
}

// Fig11 prints the latency comparison (Figure 11), normalized to Random.
func Fig11(w io.Writer, rows []SweepRow) error {
	fmt.Fprintln(w, "Figure 11: average/maximum latency (normalized to Random)")
	return pivot(w, rows, func(r SweepRow) string {
		return fmt.Sprintf("%.3f/%.3f%s", r.Norm.AvgLatency, r.Norm.MaxLatency, esMark(r.EarlyStopped))
	})
}

// Fig12 prints the congestion comparison (Figure 12), normalized to Random.
func Fig12(w io.Writer, rows []SweepRow) error {
	fmt.Fprintln(w, "Figure 12: average/maximum congestion (normalized to Random)")
	return pivot(w, rows, func(r SweepRow) string {
		return fmt.Sprintf("%.3f/%.3f%s", r.Norm.AvgCongestion, r.Norm.MaxCongestion, esMark(r.EarlyStopped))
	})
}

// pivot renders rows as a workload × method table.
func pivot(w io.Writer, rows []SweepRow, cell func(SweepRow) string) error {
	methods := orderedMethods(rows)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprint(tw, "Workload\tClusters")
	for _, m := range methods {
		fmt.Fprintf(tw, "\t%s", m)
	}
	fmt.Fprintln(tw)
	var curWl string
	cells := map[string]string{}
	var clusters int
	flush := func() {
		if curWl == "" {
			return
		}
		fmt.Fprintf(tw, "%s\t%d", curWl, clusters)
		for _, m := range methods {
			fmt.Fprintf(tw, "\t%s", cells[m])
		}
		fmt.Fprintln(tw)
	}
	for _, r := range rows {
		if r.Workload != curWl {
			flush()
			curWl = r.Workload
			clusters = r.Clusters
			cells = map[string]string{}
		}
		cells[r.Method] = cell(r)
	}
	flush()
	return tw.Flush()
}

func orderedMethods(rows []SweepRow) []string {
	var out []string
	seen := map[string]bool{}
	for _, r := range rows {
		if !seen[r.Method] {
			seen[r.Method] = true
			out = append(out, r.Method)
		}
	}
	return out
}

// Fig13 renders the generalized Hilbert curve on the Appendix A rectangle
// sizes (16×8, 13×19, 16×12) as sequence-index grids.
func Fig13(w io.Writer) {
	sizes := [][2]int{{16, 8}, {13, 19}, {16, 12}}
	for _, s := range sizes {
		fmt.Fprintf(w, "Modified Hilbert curve on %dx%d (cell = visit order):\n", s[0], s[1])
		RenderCurve(w, curve.Hilbert{}, s[0], s[1])
		fmt.Fprintln(w)
	}
}

// Headline runs the proposed approach on a single workload and prints the
// §5.3 headline numbers (the paper: DNN_4B, 1 M cores, mapped in seconds
// while all baselines exceed 100 hours): the workload line, the mapping
// time and the metrics. Per-stage walls come from the -trace-out spans;
// benchmark/'s dnn268m and dnn4b workloads track time and peak memory.
func Headline(w io.Writer, workload string, opts RunOptions) error {
	wl, err := WorkloadByName(workload)
	if err != nil {
		return err
	}
	p, mesh, err := buildFor(wl, opts)
	if err != nil {
		return err
	}
	rows, err := runMethods(wl.Name, p, mesh, []Method{Proposed()}, opts.withDefaults(), nil)
	if err != nil {
		return err
	}
	r := rows[0]
	fmt.Fprintf(w, "%s: %s neurons, %d clusters, %s connections, %v mesh\n",
		wl.Name, humanCount(wl.Net().NumNeurons()), p.NumClusters, humanCount(p.NumEdges()), mesh)
	fmt.Fprintf(w, "proposed approach solved in %s%s\n", fmtDuration(r.Elapsed), esMark(r.EarlyStopped))
	fmt.Fprintf(w, "metrics: %s\n", r.Metrics)
	return nil
}

// Ablation sweeps the FD hyperparameter λ and the potential functions on
// one workload, quantifying the §4.5 design choices.
func Ablation(w io.Writer, workload string, opts RunOptions) error {
	wl, err := WorkloadByName(workload)
	if err != nil {
		return err
	}
	p, mesh, err := buildFor(wl, opts)
	if err != nil {
		return err
	}
	opts = opts.withDefaults()

	fmt.Fprintf(w, "Ablation on %s (%d clusters)\n\n", wl.Name, p.NumClusters)
	fmt.Fprintln(w, "λ sweep (HSC + FD(uc)):")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "lambda\tenergy(E_s) reduction\titerations\tswaps\ttime")
	for _, lambda := range []float64{0.05, 0.1, 0.3, 0.6, 1.0} {
		pl, err := mapping.InitialPlacement(p, mesh, curve.Hilbert{})
		if err != nil {
			return err
		}
		st, err := mapping.Finetune(p, pl, mapping.FDConfig{Potential: mapping.L2Sq{}, Lambda: lambda, Budget: opts.Budget})
		if err != nil {
			return err
		}
		fmt.Fprintf(tw, "%.2f\t%.2f%%\t%d\t%d\t%s\n",
			lambda, 100*(1-st.FinalEnergy/st.InitialEnergy), st.Iterations, st.Swaps, fmtDuration(st.Elapsed))
	}
	tw.Flush()

	fmt.Fprintln(w)
	fmt.Fprintln(w, "Potential functions (HSC + FD, λ=0.3), metrics normalized to the HSC-only placement:")
	tw = tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "potential\tEnergy\tAvgLat\tMaxLat\tAvgCon\tMaxCon\ttime")
	hscPl, err := mapping.InitialPlacement(p, mesh, curve.Hilbert{})
	if err != nil {
		return err
	}
	base := metrics.Evaluate(p, hscPl, opts.Cost, metrics.Options{Workers: opts.Workers})
	for _, name := range []string{"l1", "l1sq", "l2sq", "energy"} {
		pot, err := mapping.PotentialByName(name, opts.Cost)
		if err != nil {
			return err
		}
		pl := hscPl.Clone()
		st, err := mapping.Finetune(p, pl, mapping.FDConfig{Potential: pot, Budget: opts.Budget})
		if err != nil {
			return err
		}
		n := metrics.Evaluate(p, pl, opts.Cost, metrics.Options{Workers: opts.Workers}).Normalize(base)
		fmt.Fprintf(tw, "%s\t%.3f\t%.3f\t%.3f\t%.3f\t%.3f\t%s\n",
			name, n.Energy, n.AvgLatency, n.MaxLatency, n.AvgCongestion, n.MaxCongestion, fmtDuration(st.Elapsed))
	}
	return tw.Flush()
}

// Multicast reports, per workload, the energy of the proposed placement
// under the paper's unicast model (Eq. 9) and under dimension-ordered
// multicast tree routing — the saving real multicast NoCs (SpiNNaker,
// TrueNorth) can realize on top of a good placement.
func Multicast(w io.Writer, scale Scale, opts RunOptions) error {
	opts = opts.withDefaults()
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Workload\tUnicast energy\tMulticast energy\tSaving")
	m := Proposed()
	for _, wl := range Workloads(scale) {
		p, mesh, err := buildFor(wl, opts)
		if err != nil {
			return fmt.Errorf("build %s: %w", wl.Name, err)
		}
		pl, _, err := m.Run(p, mesh, opts)
		if err != nil {
			return fmt.Errorf("%s: %w", wl.Name, err)
		}
		mc := metrics.MulticastEnergy(p, pl, opts.Cost)
		fmt.Fprintf(tw, "%s\t%.4g\t%.4g\t%.1f%%\n", wl.Name, mc.UnicastEnergy, mc.Energy, 100*mc.Saving())
	}
	return tw.Flush()
}
