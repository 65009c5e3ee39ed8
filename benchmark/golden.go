package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
)

// goldenSeed is the seed golden.json pins; another seed skips the
// comparison and keeps every correctness check.
const goldenSeed = 1

//go:embed golden.json
var goldenJSON []byte

// golden maps workload → metric → value at goldenSeed: the five quality
// metrics and the counts that repeat exactly.
type golden map[string]map[string]float64

func goldenOf(r *runResult) map[string]float64 {
	g := map[string]float64{}
	for _, q := range qualityMetrics {
		g[q] = r.endToEnd[q].Median
	}
	for _, c := range goldenCounts {
		if v, ok := r.layer[c]; ok {
			g[c] = v
		}
	}
	return g
}

// compareGolden prints every value that moved away from golden.json as a
// named drift. A drift is not a failure: a change that improves placement
// quality moves these on purpose and then updates the file.
func compareGolden(out io.Writer, results []*runResult) {
	var want golden
	if err := json.Unmarshal(goldenJSON, &want); err != nil {
		fmt.Fprintf(out, "golden: cannot read golden.json: %v\n", err)
		return
	}
	drifts, compared := 0, 0
	for _, r := range results {
		pinned, ok := want[r.w.name]
		if r.seed != goldenSeed || len(r.endToEnd) == 0 || r.w.smoke {
			continue
		}
		compared++
		if !ok {
			fmt.Fprintf(out, "golden: DRIFT %s has no golden values\n", r.w.name)
			drifts++
			continue
		}
		got := goldenOf(r)
		for _, name := range slices.Concat(qualityMetrics, goldenCounts) {
			if got[name] != pinned[name] {
				fmt.Fprintf(out, "golden: DRIFT %s %s = %.17g, golden %.17g\n", r.w.name, name, got[name], pinned[name])
				drifts++
			}
		}
	}
	switch {
	case compared == 0:
		fmt.Fprintf(out, "golden: not compared (values are pinned at seed %d)\n", goldenSeed)
	case drifts == 0:
		fmt.Fprintln(out, "golden: no drift")
	}
}

// writeGolden rewrites golden.json in the current directory, keeping the
// pinned values of workloads this run did not measure.
func writeGolden(results []*runResult) error {
	var g golden
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		g = golden{}
	}
	for _, r := range results {
		if r.seed != goldenSeed {
			return fmt.Errorf("golden values are pinned at seed %d, this run used %d", goldenSeed, r.seed)
		}
		if !r.correct() {
			return fmt.Errorf("%s failed; golden.json not updated", r.w.name)
		}
		g[r.w.name] = goldenOf(r)
	}
	data, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile("golden.json", append(data, '\n'), 0o644)
}
