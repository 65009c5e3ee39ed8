package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"snnmap/internal/codec"
	"snnmap/internal/obs"
)

// runAsCLIEnv makes the test binary run main() instead of the tests, so the
// CLI is exercised as a real process: flags, stdout/stderr and exit code.
const runAsCLIEnv = "SNNMAP_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runAsCLIEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runCLI runs snnmap with args and returns its exit code, stdout and stderr.
func runCLI(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], append([]string{"-workers", "1"}, args...)...)
	cmd.Env = append(os.Environ(), runAsCLIEnv+"=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return 0, stdout.String(), stderr.String()
	case errors.As(err, &exit):
		return exit.ExitCode(), stdout.String(), stderr.String()
	}
	t.Fatalf("running the CLI: %v", err)
	return 0, "", ""
}

// TestBadInputsExitOne: invalid user input is a clean exit 1 with a
// "snnmap:" message — never a panic (exit 2) — within 5 s. A fault spec that
// leaves no healthy core however far the mesh grows (every core dead, every
// row failed) is such input: the run must not grow the mesh without end. So
// is a spare row for a method that cannot keep one free (TrueNorth), and a
// -checkpoint with no iteration interval to write it at.
func TestBadInputsExitOne(t *testing.T) {
	// Traffic 256 neurons × fan-in 1e10 × rate 1e300 per target cluster
	// overflows float64.
	infNet := filepath.Join(t.TempDir(), "inf.json")
	if err := os.WriteFile(infNet, []byte(`{"name": "inf",
		"layers": [{"name": "a", "neurons": 8192, "rate": 1e300}, {"name": "b", "neurons": 8192}],
		"connections": [{"from": 0, "to": 1, "fanIn": 10000000000, "pattern": "dense"}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	// The defect schema has no per-core capacity; a file that carries one
	// is refused rather than mapped as if the cores were healthy.
	degraded := filepath.Join(t.TempDir(), "degraded.json")
	if err := os.WriteFile(degraded, []byte(`{"rows":4,"cols":4,"dead":[15],
		"degraded":[{"core":0,"scale":0.01},{"core":1,"scale":0.01},{"core":4,"scale":0.01},{"core":5,"scale":0.01}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"-net", infNet, "-budget", "0"},
		{"-workload", "LeNet-MNIST", "-budget", "0", "-faults", degraded},
		{"-workload", "LeNet-MNIST", "-budget", "0", "-faults", "uniform:dead=NaN"},
		{"-workload", "LeNet-MNIST", "-budget", "0", "-faults", "uniform:links=Inf"},
		{"-workload", "LeNet-MNIST", "-budget", "0", "-faults", "lines:rows=-1"},
		{"-workload", "NoSuchNet"},
		{"-workload", "LeNet-MNIST", "-budget", "0", "-spare-rows", "9223372036854775807"},
		{"-workload", "LeNet-MNIST", "-budget", "0", "-spare-rows", "100000000"},
		{"-workload", "LeNet-MNIST", "-budget", "0", "-faults", "uniform:dead=1"},
		{"-workload", "LeNet-MNIST", "-budget", "0", "-faults", "clustered:dead=1"},
		{"-workload", "LeNet-MNIST", "-budget", "0", "-faults", "lines:rows=100000"},
		{"-workload", "LeNet-MNIST", "-budget", "0", "-method", "TrueNorth", "-spare-rows", "1"},
		{"-workload", "LeNet-MNIST", "-budget", "0", "-checkpoint", filepath.Join(t.TempDir(), "snap"), "-checkpoint-every", "0"},
	} {
		start := time.Now()
		code, _, stderr := runCLI(t, args...)
		if code != 1 || !strings.Contains(stderr, "snnmap:") {
			t.Errorf("snnmap %s: exit %d, stderr:\n%s", strings.Join(args, " "), code, stderr)
		}
		if d := time.Since(start); d > 5*time.Second {
			t.Errorf("snnmap %s: took %v", strings.Join(args, " "), d)
		}
	}
}

// TestSavePlacement: a mapping run exits 0 and -save-placement leaves a file
// the codec reads back as a placement of every cluster.
func TestSavePlacement(t *testing.T) {
	path := filepath.Join(t.TempDir(), "lenet.plc")
	code, stdout, stderr := runCLI(t, "-workload", "LeNet-MNIST", "-budget", "0", "-save-placement", path)
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr)
	}
	if !strings.Contains(stdout, "wrote "+path) {
		t.Errorf("stdout does not report the write:\n%s", stdout)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	pl, err := codec.ReadPlacement(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(pl.PosOf) != 9 {
		t.Errorf("placement has %d clusters, want LeNet-MNIST's 9", len(pl.PosOf))
	}
}

// metricsLine returns the "metrics:" line of a run's stdout.
func metricsLine(t *testing.T, stdout string) string {
	t.Helper()
	for _, line := range strings.Split(stdout, "\n") {
		if strings.HasPrefix(line, "metrics:") {
			return line
		}
	}
	t.Fatalf("no metrics line in:\n%s", stdout)
	return ""
}

// TestWarmRunEqualsCold: a second run against the same -cache-dir is served
// from the result and metrics stages and reproduces the cold run's placement
// bytes and metrics, and those two stages are all the cache holds.
func TestWarmRunEqualsCold(t *testing.T) {
	dir := t.TempDir()
	cacheDir := filepath.Join(dir, "cache")
	var placements [2][]byte
	var metrics [2]string
	var warmOut string
	for i, name := range []string{"cold.plc", "warm.plc"} {
		path := filepath.Join(dir, name)
		code, stdout, stderr := runCLI(t, "-workload", "LeNet-MNIST", "-budget", "0", "-cache-dir", cacheDir, "-save-placement", path)
		if code != 0 {
			t.Fatalf("run %d: exit %d, stderr:\n%s", i, code, stderr)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		placements[i], metrics[i], warmOut = b, metricsLine(t, stdout), stdout
	}
	if !bytes.Equal(placements[0], placements[1]) {
		t.Error("warm placement bytes differ from cold")
	}
	if metrics[0] != metrics[1] {
		t.Errorf("warm %q != cold %q", metrics[1], metrics[0])
	}
	if !strings.Contains(warmOut, "result 1/0 metrics 1/0") {
		t.Errorf("warm run was not served from the cache:\n%s", warmOut)
	}
	entries, err := os.ReadDir(cacheDir)
	if err != nil {
		t.Fatal(err)
	}
	var stages []string
	for _, e := range entries {
		stages = append(stages, e.Name())
	}
	if strings.Join(stages, " ") != "metrics result" {
		t.Errorf("cache directory holds %v, want [metrics result]", stages)
	}
}

// TestCheckpointOnWarmHit: a run whose result comes from -cache-dir never
// fine-tunes, so it must say that rather than claim fine-tuning finished
// before the first checkpoint interval.
func TestCheckpointOnWarmHit(t *testing.T) {
	dir := t.TempDir()
	cacheDir := filepath.Join(dir, "cache")
	run := func(snap string) string {
		t.Helper()
		code, stdout, stderr := runCLI(t, "-workload", "LeNet-ImageNet", "-budget", "0", "-cache-dir", cacheDir,
			"-checkpoint", snap, "-checkpoint-every", "4")
		if code != 0 {
			t.Fatalf("exit %d, stderr:\n%s", code, stderr)
		}
		return stdout
	}
	coldSnap, warmSnap := filepath.Join(dir, "cold.snap"), filepath.Join(dir, "warm.snap")
	run(coldSnap)
	if _, err := os.Stat(coldSnap); err != nil {
		t.Fatalf("cold run wrote no checkpoint: %v", err)
	}
	out := run(warmSnap)
	if _, err := os.Stat(warmSnap); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("warm run wrote a checkpoint (stat: %v)", err)
	}
	if !strings.Contains(out, "served from -cache-dir") || strings.Contains(out, "finished before") {
		t.Errorf("warm run misreports why no checkpoint was written:\n%s", out)
	}
}

// TestFailedRunLeavesValidTrace: a run that fails after tracing started
// exits 1 and still flushes a well-formed (truncated) trace.
func TestFailedRunLeavesValidTrace(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "t.json")
	code, _, stderr := runCLI(t, "-workload", "LeNet-MNIST", "-budget", "0", "-faults", "uniform:dead=NaN", "-trace-out", trace)
	if code != 1 {
		t.Fatalf("exit %d, want 1; stderr:\n%s", code, stderr)
	}
	f, err := os.Open(trace)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := obs.ValidateTrace(f); err != nil {
		t.Errorf("trace of the failed run does not validate: %v", err)
	}
}
