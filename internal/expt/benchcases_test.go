package expt

import (
	"runtime"
	"testing"
)

// TestBenchCasesTable holds both tiers of the benchmark table to the shape
// cmd/bench relies on: unique (op, workload) keys, every base an earlier
// case on the same workload, each workload's cases contiguous — and
// building the table builds no workload input.
func TestBenchCasesTable(t *testing.T) {
	for _, smoke := range []bool{true, false} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		cases := BenchCases(smoke)
		runtime.ReadMemStats(&after)
		// The smallest input (the smoke tier's 32k-neuron partition graph)
		// allocates several MB; the table itself is a few KB of closures.
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Errorf("smoke=%v: building the table allocated %d bytes; it must not build inputs", smoke, grew)
		}
		if len(cases) == 0 {
			t.Fatalf("smoke=%v: empty table", smoke)
		}
		seen := map[[2]string]bool{}
		done := map[string]bool{}
		for i, c := range cases {
			key := [2]string{c.Op, c.Workload}
			if seen[key] {
				t.Errorf("smoke=%v: duplicate case %s %s", smoke, c.Op, c.Workload)
			}
			if c.Base != "" && !seen[[2]string{c.Base, c.Workload}] {
				t.Errorf("smoke=%v: %s %s: base %q is not an earlier case on that workload", smoke, c.Op, c.Workload, c.Base)
			}
			if i > 0 && cases[i-1].Workload != c.Workload {
				if done[c.Workload] {
					t.Errorf("smoke=%v: workload %s's cases are not contiguous", smoke, c.Workload)
				}
				done[cases[i-1].Workload] = true
			}
			if c.Op == "" || c.Workload == "" || c.Bench == nil {
				t.Errorf("smoke=%v: case %d is incomplete: %+v", smoke, i, c)
			}
			seen[key] = true
		}
	}
}
