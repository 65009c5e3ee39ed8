package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestUnknownTierFailsWithoutOutput(t *testing.T) {
	out := filepath.Join(t.TempDir(), "BENCH_eval.json")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-tier", "huge", "-o", out}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit code %d, want 1", code)
	}
	if !strings.Contains(stderr.String(), `unknown tier "huge"`) {
		t.Errorf("stderr %q does not name the bad tier", stderr.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("stdout got %q, want nothing", stdout.String())
	}
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Errorf("output file: stat error %v, want not-exist", err)
	}
}
