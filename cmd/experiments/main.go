// Command experiments regenerates every table and figure of the paper's
// evaluation (§5) as text reports. See DESIGN.md for the experiment index.
//
// Usage:
//
//	experiments -run table3 -scale small
//	experiments -run fig8 -workload ResNet -budget 2m
//	experiments -run sweep -scale medium     # figures 9-12 from one sweep
//	experiments -run headline -scale full    # DNN_4B, ~2.5 GB RAM
//	experiments -run all
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"strings"
	"time"

	"snnmap/internal/expt"
	"snnmap/internal/obs"
)

// runNames lists the experiments -run accepts.
var runNames = []string{"table1", "table2", "table3", "fig6", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13", "sweep", "headline", "ablation", "multicast", "faults", "recovery", "all"}

// parseRuns splits the comma-separated -run value into the set of requested
// experiments, rejecting any name outside runNames so a typo fails instead
// of running nothing.
func parseRuns(s string) (map[string]bool, error) {
	want := map[string]bool{}
	for _, r := range strings.Split(s, ",") {
		r = strings.TrimSpace(r)
		if !slices.Contains(runNames, r) {
			return nil, fmt.Errorf("unknown -run %q (%s)", r, strings.Join(runNames, "|"))
		}
		want[r] = true
	}
	return want, nil
}

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

// run is the command: the reports requested by args go to stdout, progress
// lines and flag usage to stderr. The trace and profiles are flushed on
// every return, so a failed run still leaves a valid (truncated) trace.
func run(args []string, stdout, stderr io.Writer) (err error) {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		runs     = fs.String("run", "all", "comma-separated experiments: "+strings.Join(runNames, ","))
		scaleStr = fs.String("scale", "small", "workload tier: tiny|small|medium|full")
		seed     = fs.Int64("seed", 1, "seed for randomized methods")
		budget   = fs.Duration("budget", 30*time.Second, "wall-clock budget per method run (0 = unlimited)")
		workload = fs.String("workload", "ResNet", "workload for fig8/headline/ablation")
		progress = fs.Bool("progress", true, "print per-run progress lines during sweeps")
		workers  = fs.Int("workers", runtime.GOMAXPROCS(0), "goroutines for FD fine-tuning (its O(E) build phases) and metrics evaluation (1 = sequential; results are bit-identical at any count)")
	)
	// -progress predates the obs layer and keeps its meaning (per-run sweep
	// lines) while also driving the live renderer, so only the three
	// remaining observability flags are registered here.
	var cli obs.CLI
	fs.StringVar(&cli.TraceOut, "trace-out", "", "write phase spans and counters as Chrome trace-event JSON to this file (open in Perfetto or chrome://tracing)")
	fs.StringVar(&cli.CPUProfile, "cpuprofile", "", "write a pprof CPU profile to this file")
	fs.StringVar(&cli.MemProfile, "memprofile", "", "write a pprof heap profile to this file on exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cli.Progress = *progress
	want, err := parseRuns(*runs)
	if err != nil {
		return err
	}

	o, stopObs, err := cli.Start(stderr)
	if err != nil {
		return err
	}
	defer func() {
		if serr := stopObs(); err == nil {
			err = serr
		}
	}()

	scale, err := expt.ParseScale(*scaleStr)
	if err != nil {
		return err
	}
	opts := expt.RunOptions{Seed: *seed, Budget: *budget, Workers: *workers, Obs: o}
	all := want["all"]

	section := func(name string) { fmt.Fprintf(stdout, "\n===== %s =====\n", name) }

	if all || want["table1"] {
		section("Table 1: platform capacities")
		expt.Table1(stdout)
	}
	if all || want["table2"] {
		section("Table 2: target hardware parameters")
		expt.Table2(stdout)
	}
	if all || want["table3"] {
		section("Table 3: benchmarks (measured vs paper)")
		if err := expt.Table3(stdout, scale); err != nil {
			return err
		}
	}
	if all || want["fig6"] {
		section("Figure 6: space-filling curve costs")
		if err := expt.Fig6(stdout, *seed); err != nil {
			return err
		}
	}
	if all || want["fig8"] {
		section("Figure 8: methods a)-j)")
		// The paper uses ResNet (ScaleMedium); at smaller scales default to
		// the largest workload the tier includes.
		wl := *workload
		if all && scale < expt.ScaleMedium {
			wl = "MobileNet"
		}
		if err := expt.Fig8(stdout, wl, opts); err != nil {
			return err
		}
	}
	needSweep := all || want["sweep"] || want["fig9"] || want["fig10"] || want["fig11"] || want["fig12"]
	if needSweep {
		section("Sweep: §5.3 comparison (figures 9-12)")
		var prog io.Writer
		if *progress {
			prog = stderr
		}
		rows, err := expt.Sweep(scale, opts, prog)
		if err != nil {
			return err
		}
		for _, f := range []struct {
			key string
			fn  func() error
		}{
			{"fig9", func() error { return expt.Fig9(stdout, rows) }},
			{"fig10", func() error { return expt.Fig10(stdout, rows) }},
			{"fig11", func() error { return expt.Fig11(stdout, rows) }},
			{"fig12", func() error { return expt.Fig12(stdout, rows) }},
		} {
			if all || want["sweep"] || want[f.key] {
				fmt.Fprintln(stdout)
				if err := f.fn(); err != nil {
					return err
				}
			}
		}
	}
	if all || want["fig13"] {
		section("Figure 13: modified Hilbert curve on arbitrary rectangles")
		expt.Fig13(stdout)
	}
	if want["headline"] {
		section("Headline: very large scale mapping")
		wl := *workload
		if wl == "ResNet" && scale == expt.ScaleFull {
			wl = "DNN_4B"
		}
		if err := expt.Headline(stdout, wl, opts); err != nil {
			return err
		}
	}
	if all || want["multicast"] {
		section("Extension: multicast tree-routing savings")
		if err := expt.Multicast(stdout, scale, opts); err != nil {
			return err
		}
	}
	if all || want["faults"] {
		section("Extension: fault-aware mapping under dead cores and failed links")
		wl := *workload
		if all && scale < expt.ScaleMedium {
			wl = "LeNet-ImageNet"
		}
		if err := expt.FaultSweep(stdout, wl, []float64{0, 0.01, 0.05, 0.10, 0.20}, 0.02, opts); err != nil {
			return err
		}
	}
	if all || want["recovery"] {
		section("Extension: spare-row redundancy vs per-cluster remap after a row failure")
		wl := *workload
		if all && scale < expt.ScaleMedium {
			wl = "LeNet-ImageNet"
		}
		if err := expt.RecoverySweep(stdout, wl, []int{0, 1, 2}, opts); err != nil {
			return err
		}
	}
	if all || want["ablation"] {
		section("Ablation: λ and potential functions (§4.5)")
		wl := *workload
		if all && scale < expt.ScaleMedium {
			wl = "MobileNet"
		}
		if err := expt.Ablation(stdout, wl, opts); err != nil {
			return err
		}
	}

	return nil
}
