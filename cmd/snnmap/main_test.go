package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"snnmap/internal/codec"
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
	cmd := exec.Command(os.Args[0], append([]string{"-workers", "1", "-sim-shards", "1"}, args...)...)
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
// "snnmap:" message — never a panic (exit 2).
func TestBadInputsExitOne(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "LeNet-MNIST", "-budget", "0", "-faults", "uniform:dead=NaN"},
		{"-workload", "LeNet-MNIST", "-budget", "0", "-faults", "uniform:links=Inf"},
		{"-workload", "LeNet-MNIST", "-budget", "0", "-faults", "lines:rows=-1"},
		{"-workload", "NoSuchNet"},
	} {
		code, _, stderr := runCLI(t, args...)
		if code != 1 || !strings.Contains(stderr, "snnmap:") {
			t.Errorf("snnmap %s: exit %d, stderr:\n%s", strings.Join(args, " "), code, stderr)
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
