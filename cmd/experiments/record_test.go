package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var (
	updateGolden = flag.Bool("update-golden", false, "rewrite results/*.txt from the commands' output")
	long         = flag.Bool("long", false, "also run the record cases that take minutes or gigabytes")
)

// recordCases is the reproduction record: each results/ file is exactly what
// its experiments command prints, up to wall-clock cells. Long cases (the
// medium sweep, ≈ 1–2.5 min; DNN_4B, ≈ 2.5 GB; the LeNet-ImageNet fault
// sweep, whose rows drop spikes, ≈ 11 s) run only under -long.
var recordCases = []struct {
	file, args string
	long       bool
}{
	{"tables_and_figures.txt", "-run table1,table2,table3,fig6,fig13 -scale medium", false},
	{"fig8_resnet_ablation.txt", "-run fig8,ablation -workload ResNet -scale medium -budget 120s", false},
	{"extensions.txt", "-run multicast,faults,recovery -scale small -workload LeNet-MNIST", false},
	{"faults_lenet_imagenet.txt", "-run faults -workload LeNet-ImageNet", true},
	{"fig9-12_sweep_medium.txt", "-run sweep -scale medium -budget 60s", true},
	{"headline_dnn4b.txt", "-run headline -scale full -workload DNN_4B", true},
}

var (
	// esCell is a cell carrying the early-stop marker: where a budget stops
	// a run depends on the machine, so the whole cell is wall-clock.
	esCell = regexp.MustCompile(`\S+ \(ES\)`)
	// duration is every form expt's fmtDuration prints.
	duration = regexp.MustCompile(`\b\d+(ns|\.\dµs|\.\dms|\.\d\ds|\.\dm)\b`)
	spaces   = regexp.MustCompile(` +`)
)

// maskClock blanks the wall-clock cells of a report and collapses the
// tabwriter padding, which follows the widest cell of each column.
func maskClock(s string) string {
	s = esCell.ReplaceAllString(s, "<ES>")
	s = duration.ReplaceAllString(s, "<t>")
	return spaces.ReplaceAllString(s, " ")
}

// TestResultsRecord runs each documented command in process and compares its
// output with the checked-in file. Regenerate the record with
//
//	go test ./cmd/experiments -run TestResultsRecord -update-golden [-long]
func TestResultsRecord(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "..", "results", "*.txt"))
	if err != nil {
		t.Fatal(err)
	}
	cased := map[string]bool{}
	for _, c := range recordCases {
		cased[c.file] = true
	}
	for _, f := range files {
		if !cased[filepath.Base(f)] {
			t.Errorf("%s has no record case", f)
		}
	}
	for _, c := range recordCases {
		t.Run(c.file, func(t *testing.T) {
			if c.long && !*long {
				t.Skip("long case; run with -long")
			}
			path := filepath.Join("..", "..", "results", c.file)
			var out bytes.Buffer
			if err := run(strings.Fields(c.args), &out, io.Discard); err != nil {
				t.Fatalf("experiments %s: %v", c.args, err)
			}
			if *updateGolden {
				if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update-golden to create it)", err)
			}
			if diff := lineDiff(maskClock(string(want)), maskClock(out.String())); diff != "" {
				t.Errorf("experiments %s differs from %s beyond wall-clock cells:\n%s", c.args, c.file, diff)
			}
		})
	}
}

// lineDiff lists the lines where got departs from want, "" if none.
func lineDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	var b strings.Builder
	for i := range max(len(w), len(g)) {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			fmt.Fprintf(&b, "line %d:\n  file: %s\n  run:  %s\n", i+1, wl, gl)
		}
	}
	return b.String()
}
