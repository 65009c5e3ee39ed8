// Command benchmark is the repository's acceptance benchmark: seven mapping
// workloads, each run as repeated fresh processes through the public
// functions of the pipeline's layers, reporting end-to-end metrics with
// regression bounds, per-layer metrics from a traced repetition, and
// correctness checks that share no code with the layers. README.md explains
// the workloads and metrics; BENCHMARK.json is the contract with the
// acceptance driver.
//
//	go run .                                   every workload: timed reps, traced rep, golden comparison
//	go run . -workload cnn268m -seed 3         one workload, another seed
//	go run . -selfcheck                        two full sets, compared against the bounds
//	go run . --workload W --seed N --seconds S --trace 0|1
//	                                           one run for the acceptance driver: one JSON line
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "-child" {
		os.Exit(childMain(os.Args[1:]))
	}
	os.Exit(driverMain(os.Args[1:]))
}

func driverMain(args []string) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	names := fs.String("workload", "", "comma-separated workloads to run (default: all seven)")
	seed := fs.Int64("seed", 1, "seed of the generated inputs; golden values are compared at seed 1 only")
	reps := fs.Int("reps", 0, "timed repetitions per workload (default 7; 3 for dnn4b)")
	seconds := fs.Float64("seconds", 0, "acceptance-driver mode: repeat for this long instead of -reps and print one JSON line")
	trace := fs.Int("trace", 0, "with -seconds: 0 prints the end-to-end metrics, 1 adds the traced repetition and prints the per-layer metrics")
	out := fs.String("trace-dir", ".bench_out", "directory for trace-<workload>.json")
	selfcheck := fs.Bool("selfcheck", false, "run two full sets and fail if an end-to-end median moves by more than its bound")
	updateGolden := fs.Bool("update-golden", false, "rewrite golden.json from this run (seed 1)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	var selected []*workload
	if *names == "" {
		for _, w := range workloads {
			if !w.smoke {
				selected = append(selected, w)
			}
		}
	} else {
		for _, name := range strings.Split(*names, ",") {
			w, _, err := workloadByName(name)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				return 2
			}
			selected = append(selected, w)
		}
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	o := runOptions{seed: *seed, reps: *reps, seconds: *seconds, traced: true, out: *out, log: os.Stderr}

	switch {
	case *seconds > 0:
		if len(selected) != 1 {
			fmt.Fprintln(os.Stderr, "benchmark: -seconds measures exactly one -workload")
			return 2
		}
		o.traced = *trace == 1
		r := runWorkload(selected[0], o)
		r.print(os.Stderr)
		compareGolden(os.Stderr, []*runResult{r})
		line, err := json.Marshal(r.contract(o.traced))
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 2
		}
		fmt.Println(string(line))
		if !r.correct() {
			return 1
		}
		return 0

	case *selfcheck:
		return runSelfcheck(selected, o)
	}

	results := runSet(selected, o)
	ops, failed := 0, 0
	for _, r := range results {
		ops, failed = ops+r.attempted, failed+r.failed
	}
	if *updateGolden {
		if err := writeGolden(results); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
	} else {
		compareGolden(os.Stdout, results)
	}
	fmt.Printf("total: %d workloads, ops %d, failed_ops %d\n", len(results), ops, failed)
	if failed > 0 {
		return 1
	}
	return 0
}

// runSet measures the workloads one after another and prints each.
func runSet(selected []*workload, o runOptions) []*runResult {
	fmt.Printf("benchmark: %s %s/%s, nproc %d, GOMAXPROCS %d, seed %d\n",
		runtime.Version(), runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), runtime.GOMAXPROCS(0), o.seed)
	var results []*runResult
	for _, w := range selected {
		r := runWorkload(w, o)
		r.print(os.Stdout)
		results = append(results, r)
	}
	return results
}

// runSelfcheck measures the same code twice and compares the two sets the
// way a later change is compared with its parent.
func runSelfcheck(selected []*workload, o runOptions) int {
	first := runSet(selected, o)
	second := runSet(selected, o)
	bad := 0
	fmt.Println("selfcheck: end-to-end medians of two sets of the same code")
	for i, a := range first {
		b := second[i]
		bad += a.failed + b.failed
		for _, d := range endToEnd {
			x, y := a.endToEnd[d.name].Median, b.endToEnd[d.name].Median
			moved := math.Abs(worsening(x, y, d.higher))
			verdict := "ok"
			if moved > d.bound && !(d.name == "setup_s" && math.Abs(y-x) <= setupFloorS) {
				verdict = "MOVED"
				bad++
			}
			fmt.Printf("  %-16s %-16s %-22s %-22s %+8.3f%% of bound %g%%  %s\n", a.w.name, d.name, fmtValue(x), fmtValue(y), 100*worsening(x, y, d.higher), 100*d.bound, verdict)
		}
	}
	if bad > 0 {
		fmt.Printf("selfcheck: FAILED (%d)\n", bad)
		return 1
	}
	fmt.Println("selfcheck: passed")
	return 0
}
