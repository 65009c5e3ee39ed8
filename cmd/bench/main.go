// Command bench times the benchmark case table (expt.BenchCases) with
// testing.Benchmark and writes BENCH_eval.json, the tracked kernel-level
// baseline. Each record is one operation on one workload: ns/op, allocs/op,
// bytes/op and, where the case names a base case, the speedup against it.
// End-to-end and parallel-scaling numbers live in the benchmark/ module.
//
// Usage:
//
//	bench -o BENCH_eval.json              # full table (~1 min)
//	bench -tier smoke -o BENCH_eval.json  # CI-sized table
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"testing"
	"time"

	"snnmap/internal/expt"
	"snnmap/internal/fsx"
	"snnmap/internal/obs"
)

// Record is one benchmark measurement in BENCH_eval.json.
type Record struct {
	Op          string `json:"op"`
	Workload    string `json:"workload"`
	NsPerOp     int64  `json:"ns_per_op"`
	AllocsPerOp int64  `json:"allocs_per_op"`
	// SpeedupVsSequential is the base case's ns/op over this one's; 0 when
	// the case has no base.
	SpeedupVsSequential float64 `json:"speedup_vs_sequential,omitempty"`
	// BytesPerOp is the payload size for cases that set one (the encoded
	// snapshot for snapshot-encode/decode), bytes allocated per op otherwise.
	BytesPerOp int64 `json:"bytes_per_op,omitempty"`
	Gomaxprocs int   `json:"gomaxprocs"`
}

// SectionTime is the wall-clock total of one workload's cases: its setup
// plus every testing.Benchmark calibration run.
type SectionTime struct {
	Section string `json:"section"`
	WallMs  int64  `json:"wall_ms"`
}

// Report is the BENCH_eval.json document.
type Report struct {
	Tier        string        `json:"tier"`
	GoVersion   string        `json:"go_version"`
	GOMAXPROCS  int           `json:"gomaxprocs"`
	Sections    []SectionTime `json:"sections"`
	TotalWallMs int64         `json:"total_wall_ms"`
	Records     []Record      `json:"records"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command: flags in args, the report to stdout with -o -,
// progress and errors to stderr. It returns the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	tier := fs.String("tier", "full", "case table: smoke (CI-sized) or full")
	out := fs.String("o", "BENCH_eval.json", "output file (- for stdout)")
	var cli obs.CLI
	fs.StringVar(&cli.TraceOut, "trace-out", "", "write per-section spans as Chrome trace-event JSON to this file (open in Perfetto or chrome://tracing)")
	fs.StringVar(&cli.CPUProfile, "cpuprofile", "", "write a pprof CPU profile of the whole table to this file")
	fs.StringVar(&cli.MemProfile, "memprofile", "", "write a pprof heap profile to this file on exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *tier != "smoke" && *tier != "full" {
		fmt.Fprintf(stderr, "bench: unknown tier %q (smoke|full)\n", *tier)
		return 1
	}
	if err := record(*tier, *out, cli, stdout, stderr); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	return 0
}

// record measures the tier's table and writes the report to out.
func record(tier, out string, cli obs.CLI, stdout, stderr io.Writer) error {
	o, stopObs, err := cli.Start(stderr)
	if err != nil {
		return err
	}
	rep, err := measure(expt.BenchCases(tier == "smoke"), o, stderr)
	if stopErr := stopObs(); err == nil {
		err = stopErr
	}
	if err != nil {
		return err
	}
	rep.Tier = tier
	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	enc = append(enc, '\n')
	if out == "-" {
		_, err = stdout.Write(enc)
		return err
	}
	if err := fsx.WriteFileAtomic(out, enc); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "wrote %s (%d records, %s wall)\n", out, len(rep.Records), (time.Duration(rep.TotalWallMs) * time.Millisecond).Round(time.Second))
	return nil
}

// measure benchmarks every case in table order, one section (and trace
// span) per workload. A case with a base gets the base's ns/op over its own.
func measure(cases []expt.BenchCase, o *obs.Observer, log io.Writer) (Report, error) {
	rep := Report{GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0)}
	start, secStart := time.Now(), time.Now()
	var span obs.Span
	ns := map[[2]string]int64{}
	for i, c := range cases {
		if i == 0 || c.Workload != cases[i-1].Workload {
			secStart, span = time.Now(), o.Span("bench."+c.Workload)
		}
		r := testing.Benchmark(c.Bench)
		if r.N == 0 {
			span.End()
			return rep, fmt.Errorf("%s %s failed (go test -run '^$' -bench Cases . shows why)", c.Op, c.Workload)
		}
		rec := Record{Op: c.Op, Workload: c.Workload, NsPerOp: r.NsPerOp(), AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp: r.Bytes, Gomaxprocs: rep.GOMAXPROCS}
		if rec.BytesPerOp == 0 {
			rec.BytesPerOp = r.AllocedBytesPerOp()
		}
		if base := ns[[2]string{c.Base, c.Workload}]; base > 0 && rec.NsPerOp > 0 {
			rec.SpeedupVsSequential = float64(base) / float64(rec.NsPerOp)
		}
		ns[[2]string{c.Op, c.Workload}] = rec.NsPerOp
		rep.Records = append(rep.Records, rec)
		note := ""
		if rec.SpeedupVsSequential > 0 {
			note = fmt.Sprintf("  (%.2fx vs %s)", rec.SpeedupVsSequential, c.Base)
		}
		fmt.Fprintf(log, "%-30s %-18s %12d ns/op %8d allocs/op %12d B/op%s\n", rec.Op, rec.Workload, rec.NsPerOp, rec.AllocsPerOp, rec.BytesPerOp, note)
		if i == len(cases)-1 || cases[i+1].Workload != c.Workload {
			rep.Sections = append(rep.Sections, SectionTime{Section: c.Workload, WallMs: time.Since(secStart).Milliseconds()})
			span.End()
		}
	}
	rep.TotalWallMs = time.Since(start).Milliseconds()
	return rep, nil
}
