package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// opTimeout bounds one repetition; a repetition that exceeds it has failed.
const opTimeout = 120 * time.Second

// runOptions selects how one workload is measured.
type runOptions struct {
	seed int64
	// reps fixes the number of timed repetitions (0: the workload's own).
	reps int
	// seconds, when positive, replaces reps: timed repetitions are started
	// until they have taken this long, and at least workload.minReps.
	seconds float64
	// traced adds the traced repetition with the kernel probes.
	traced bool
	// out receives trace-<workload>.json and probe scratch.
	out string
	// log receives one progress line per repetition.
	log io.Writer
}

// runResult is one workload measured once: a warm-up, the timed
// repetitions, and optionally the traced one.
type runResult struct {
	w    *workload
	seed int64
	// attempted counts repetitions (warm-up, timed, traced), failed those
	// that hit an error, the timeout, or a correctness check.
	attempted, failed int
	failures          []string
	// endToEnd holds the end-to-end metrics; timings are summarised over
	// the timed repetitions.
	endToEnd map[string]sample
	// layer holds the per-layer metrics: counts and values from the last
	// timed repetition, driver.* from all of them, the rest from the traced
	// repetition.
	layer map[string]float64
}

func (r *runResult) correct() bool { return r.failed == 0 && r.attempted > 0 }

// spawnRep runs one repetition in a fresh child process, the way a user
// runs the mapper: cold caches, an empty heap, its own peak RSS.
func spawnRep(w *workload, o runOptions, traced bool) (repResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return repResult{}, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	args := []string{"-child", w.name, "-seed", strconv.FormatInt(o.seed, 10), "-out", o.out}
	if traced {
		args = append(args, "-traced")
	}
	args = append(args, "-spawn-ns", strconv.FormatInt(time.Now().UnixNano(), 10))
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Stderr = os.Stderr
	cmd.WaitDelay = time.Second
	stdout, err := cmd.Output()

	var res repResult
	lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
	if jerr := json.Unmarshal(lines[len(lines)-1], &res); jerr != nil {
		if ctx.Err() != nil {
			return res, fmt.Errorf("timed out after %v", opTimeout)
		}
		return res, errors.Join(err, fmt.Errorf("no result from child: %w", jerr))
	}
	if res.Error != "" {
		return res, errors.New(res.Error)
	}
	return res, err
}

func memAvailable() (uint64, error) {
	data, err := os.ReadFile("/proc/meminfo")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "MemAvailable:" {
			kib, err := strconv.ParseUint(f[1], 10, 64)
			return kib << 10, err
		}
	}
	return 0, errors.New("no MemAvailable in /proc/meminfo")
}

// runWorkload measures one workload. Load comes from this one process, one
// repetition at a time (a closed loop of one client).
func runWorkload(w *workload, o runOptions) *runResult {
	r := &runResult{w: w, seed: o.seed, endToEnd: map[string]sample{}, layer: map[string]float64{}}
	if o.log == nil {
		o.log = io.Discard
	}
	if w.minMemAvailable > 0 {
		if avail, err := memAvailable(); err != nil || avail < w.minMemAvailable {
			r.attempted, r.failed = 1, 1
			r.failures = append(r.failures, fmt.Sprintf("refused: needs %d MiB of available memory, found %d MiB (%v)", w.minMemAvailable>>20, avail>>20, err))
			return r
		}
	}

	// rep runs one repetition and books it; ok reports a usable result. The
	// quality metrics are deterministic, so every repetition of one seed
	// must report the same bits as the one before.
	var last map[string]float64
	rep := func(kind string, traced bool) (repResult, bool) {
		r.attempted++
		res, err := spawnRep(w, o, traced)
		fails := res.Failures
		if err != nil {
			fails = append(fails, err.Error())
		} else if last != nil {
			for _, q := range qualityMetrics {
				if res.Metrics[q] != last[q] {
					fails = append(fails, fmt.Sprintf("%s differs between repetitions of one seed: %.17g, %.17g", q, last[q], res.Metrics[q]))
				}
			}
		}
		if len(fails) > 0 {
			r.failed++
			for _, f := range fails {
				r.failures = append(r.failures, kind+" rep: "+f)
			}
		}
		if err != nil {
			return res, false
		}
		fmt.Fprintf(o.log, "  %-7s %s  setup %.4fs  map %.4fs  rss %.1f MiB\n", kind, w.name,
			res.Metrics["setup_s"], res.Metrics["map_wall_s"], res.Metrics["peak_rss_bytes"]/(1<<20))
		return res, true
	}

	// The warm-up's map time is discarded: first touch of memory the guest
	// has not backed yet costs a repetition up to 1.7x. Its set-up is as good
	// a sample as any, and dnn4b has few.
	series := map[string][]float64{}
	if warm, ok := rep("warm-up", false); ok {
		r.layer["driver.warmup_s"] = warm.Metrics["map_wall_s"]
		series["setup_s"] = append(series["setup_s"], warm.Metrics["setup_s"])
	}

	target := w.reps
	if o.reps > 0 {
		target = o.reps
	}
	began := time.Now()
	for n := 0; ; n++ {
		if o.seconds > 0 {
			if n >= w.minReps && time.Since(began).Seconds() >= o.seconds {
				break
			}
		} else if n >= target {
			break
		}
		res, ok := rep("timed", false)
		if !ok {
			if r.failed >= 3 {
				break // a workload that keeps failing is not worth its timeouts
			}
			continue
		}
		for _, name := range perRep {
			series[name] = append(series[name], res.Metrics[name])
		}
		last = res.Metrics
	}
	if last == nil {
		return r
	}

	for _, name := range timings {
		r.endToEnd[name] = summarise(series[name])
	}
	for _, q := range qualityMetrics {
		r.endToEnd[q] = sample{Median: last[q], Q1: last[q], Q3: last[q], N: len(series["map_wall_s"])}
	}
	for name, v := range last {
		if !isEndToEnd(name) {
			r.layer[name] = v
		}
	}
	for name, vals := range series {
		if strings.HasPrefix(name, "driver.") {
			r.layer[name] = summarise(vals).Median
		}
	}
	wall := r.endToEnd["map_wall_s"]
	r.layer["driver.reps"] = float64(wall.N)
	r.layer["driver.workers"] = float64(w.workers())
	r.layer["driver.gomaxprocs"] = float64(runtime.GOMAXPROCS(0))
	r.layer["driver.map_wall_iqr_frac"] = wall.iqrFrac()

	if o.traced {
		if res, ok := rep("traced", true); ok {
			for name, v := range res.Metrics {
				// Times and probes come from the traced repetition; what
				// the timed ones measured with tracing off stays.
				if _, have := r.layer[name]; !have && !isEndToEnd(name) {
					r.layer[name] = v
				}
			}
			r.layer["driver.trace_overhead_frac"] = (res.Metrics["map_wall_s"] - wall.Median) / wall.Median
		}
	}
	return r
}

// timings are the end-to-end metrics summarised over repetitions, perRep
// every metric whose median over the timed repetitions is reported.
var (
	timings = []string{"setup_s", "map_wall_s", "peak_rss_bytes"}
	perRep  = append([]string{"driver.cpu_s", "driver.sys_cpu_s", "driver.minor_faults", "driver.alloc_bytes", "driver.mallocs"}, timings...)
)

func isEndToEnd(name string) bool {
	for _, d := range endToEnd {
		if d.name == name {
			return true
		}
	}
	return false
}

// print writes every metric of the run by name, with its unit.
func (r *runResult) print(out io.Writer) {
	fmt.Fprintf(out, "workload %s  seed %d  ops %d  failed_ops %d\n", r.w.name, r.seed, r.attempted, r.failed)
	for _, f := range r.failures {
		fmt.Fprintf(out, "  FAILED %s\n", f)
	}
	for _, d := range endToEnd {
		s, ok := r.endToEnd[d.name]
		if !ok {
			continue
		}
		fmt.Fprintf(out, "  %-32s %-22s %-14s median of %d, quartiles [%s, %s], bound %g\n", d.name, fmtValue(s.Median), d.unit, s.N, fmtValue(s.Q1), fmtValue(s.Q3), d.bound)
	}
	for _, d := range perLayer {
		if v, ok := r.layer[d.name]; ok {
			fmt.Fprintf(out, "  %-32s %-22s %s\n", d.name, fmtValue(v), d.unit)
		}
	}
}

func fmtValue(v float64) string { return strconv.FormatFloat(v, 'g', 10, 64) }

// contractLine is the one JSON object the acceptance driver reads from the
// last line of standard output.
type contractLine struct {
	Correct   bool                     `json:"correct"`
	Attempted int                      `json:"attempted"`
	Failed    int                      `json:"failed"`
	Metrics   map[string]contractValue `json:"metrics"`
}

type contractValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// contract renders the run for the acceptance driver: the end-to-end
// metrics of an untraced run, or every per-layer metric of a traced one. A
// per-layer metric the workload does not exercise reads 0.
func (r *runResult) contract(traced bool) contractLine {
	line := contractLine{Correct: r.correct(), Attempted: r.attempted, Failed: r.failed, Metrics: map[string]contractValue{}}
	if traced {
		for _, d := range perLayer {
			line.Metrics[d.name] = contractValue{r.layer[d.name], d.unit}
		}
	} else {
		for _, d := range endToEnd {
			line.Metrics[d.name] = contractValue{r.endToEnd[d.name].Median, d.unit}
		}
	}
	return line
}
