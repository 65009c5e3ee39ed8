package expt

import (
	"bytes"
	"strings"
	"testing"
)

// TestHeadlineWorkerIndependent: the proposed pipeline's metrics are
// bit-identical at any worker count, so Headline's metrics line is too.
func TestHeadlineWorkerIndependent(t *testing.T) {
	metricsLine := func(workers int) string {
		var buf bytes.Buffer
		if err := Headline(&buf, "DNN_65K", RunOptions{Workers: workers}); err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(buf.String(), "\n") {
			if strings.HasPrefix(line, "metrics: ") {
				return line
			}
		}
		t.Fatalf("no metrics line at workers=%d:\n%s", workers, buf.String())
		return ""
	}
	if a, b := metricsLine(1), metricsLine(4); a != b {
		t.Errorf("metrics differ across worker counts:\n  w=1: %s\n  w=4: %s", a, b)
	}
}

// TestHeadlineRenderTable pins the report's three lines: the workload, the
// mapping time and the metrics (the shape of results/headline_dnn4b.txt).
func TestHeadlineRenderTable(t *testing.T) {
	var buf bytes.Buffer
	if err := Headline(&buf, "DNN_65K", RunOptions{}); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d lines, want 3:\n%s", len(lines), buf.String())
	}
	for i, prefix := range []string{"DNN_65K: 65.5K neurons, 16 clusters, 48 connections, 4x4 mesh", "proposed approach solved in ", "metrics: energy="} {
		if !strings.HasPrefix(lines[i], prefix) {
			t.Errorf("line %d = %q, want prefix %q", i, lines[i], prefix)
		}
	}
}
