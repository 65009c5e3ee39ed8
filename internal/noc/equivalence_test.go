package noc

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"snnmap/internal/hw"
	"snnmap/internal/pcn"
	"snnmap/internal/place"
	"snnmap/internal/snn"
)

// randomCorpusWorkload builds a random PCN (unit clusters) and a random
// placement on a rows×cols mesh, deterministically from seed.
func randomCorpusWorkload(t testing.TB, seed int64, rows, cols, clusters, edges int) (*pcn.PCN, *place.Placement) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var b snn.GraphBuilder
	b.AddNeurons(clusters, -1)
	for e := 0; e < edges; e++ {
		u, v := rng.Intn(clusters), rng.Intn(clusters)
		if u != v {
			b.AddSynapse(u, v, float64(rng.Intn(6)+1))
		}
	}
	res, err := pcn.Partition(b.Build(), pcn.PartitionConfig{Constraints: hw.Constraints{NeuronsPerCore: 1}})
	if err != nil {
		t.Fatal(err)
	}
	pl, err := place.Random(res.PCN.NumClusters, hw.MustMesh(rows, cols), rng)
	if err != nil {
		t.Fatal(err)
	}
	return res.PCN, pl
}

// TestEventEngineMatchesReference is the tentpole equivalence contract: on a
// golden corpus spanning pristine and faulty meshes, all three routings,
// bounded and unbounded queues, and sparse injection schedules, the
// event-driven Simulate must produce a Result bit-identical to the original
// per-cycle simulateReference scan — every field, including traversal
// vectors, float aggregates, queue peaks and stall counters.
func TestEventEngineMatchesReference(t *testing.T) {
	mesh := hw.MustMesh(12, 12)
	deadMap := hw.InjectUniform(mesh, 0.05, 0, 7)     // ~5% dead cores
	linkMap := hw.InjectUniform(mesh, 0, 0.08, 11)    // failed links only
	mixedMap := hw.InjectUniform(mesh, 0.05, 0.05, 3) // both
	cases := []struct {
		name string
		cfg  Config
	}{
		{"pristine/xy", Config{}},
		{"pristine/yx", Config{Routing: RouteYX}},
		{"pristine/o1turn", Config{Routing: RouteO1Turn}},
		{"pristine/bounded", Config{QueueCap: 2}},
		{"pristine/bounded-yx", Config{Routing: RouteYX, QueueCap: 1}},
		{"pristine/sparse-injection", Config{InjectionInterval: 32, SpikesPerUnit: 3}},
		{"dead-cores/fault-aware", Config{Defects: deadMap, FaultAware: true}},
		{"dead-cores/drop", Config{Defects: deadMap}},
		{"failed-links/fault-aware", Config{Defects: linkMap, FaultAware: true}},
		{"failed-links/o1turn", Config{Routing: RouteO1Turn, Defects: linkMap, FaultAware: true}},
		// The short watchdog makes the in-flight age cap bite while spikes
		// are jammed against the fault boundary — exercising the TTL-drop
		// path without simulating a million cycles of gridlock.
		{"mixed/bounded-fault-aware", Config{QueueCap: 4, Defects: mixedMap, FaultAware: true, WatchdogCycles: 2000}},
		{"mixed/sparse-injection", Config{InjectionInterval: 16, Defects: mixedMap, FaultAware: true}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(1); seed <= 4; seed++ {
				p, pl := randomCorpusWorkload(t, seed, 12, 12, 60, 300)
				got, errGot := Simulate(p, pl, tc.cfg)
				want, errWant := simulateReference(context.Background(), p, pl, tc.cfg)
				if (errGot == nil) != (errWant == nil) {
					t.Fatalf("seed %d: error mismatch: event=%v reference=%v", seed, errGot, errWant)
				}
				if errGot != nil {
					if errGot.Error() != errWant.Error() {
						t.Fatalf("seed %d: error text mismatch:\nevent:     %v\nreference: %v", seed, errGot, errWant)
					}
					continue
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d: Result mismatch:\nevent:     %+v\nreference: %+v", seed, got, want)
				}
			}
		})
	}
}

// TestEventEngineMatchesReferenceErrorPaths pins the limit behavior: both
// drivers must fail identically when the cycle budget cuts a run short —
// including a budget that lands inside an idle gap the event engine
// fast-forwards across.
func TestEventEngineMatchesReferenceErrorPaths(t *testing.T) {
	p, pl := randomCorpusWorkload(t, 1, 8, 8, 30, 120)
	for _, cfg := range []Config{
		{MaxCycles: 3},
		{InjectionInterval: 500, SpikesPerUnit: 4, MaxCycles: 750},
	} {
		got, errGot := Simulate(p, pl, cfg)
		want, errWant := simulateReference(context.Background(), p, pl, cfg)
		if errGot == nil || errWant == nil {
			t.Fatalf("MaxCycles=%d: expected both drivers to fail, got event=%v reference=%v", cfg.MaxCycles, errGot, errWant)
		}
		if !errors.Is(errGot, ErrLivelock) || errGot.Error() != errWant.Error() {
			t.Fatalf("MaxCycles=%d: error mismatch:\nevent:     %v\nreference: %v", cfg.MaxCycles, errGot, errWant)
		}
		if !reflect.DeepEqual(got.RouterTraversals, want.RouterTraversals) {
			t.Fatalf("MaxCycles=%d: partial traversals diverge", cfg.MaxCycles)
		}
	}
}

// TestEventEngineFastForwardsIdleGaps checks the sparse-schedule win the
// fast-forward exists for: simulated Cycles grows with the injection
// interval (the gaps are semantically there) while the Result still matches
// the reference exactly, even when the gaps dominate the run.
func TestEventEngineFastForwardsIdleGaps(t *testing.T) {
	p, pl := randomCorpusWorkload(t, 2, 6, 6, 12, 24)
	cfg := Config{InjectionInterval: 10_000, SpikesPerUnit: 3}
	got, err := Simulate(p, pl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := simulateReference(context.Background(), p, pl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("sparse schedule diverges:\nevent:     %+v\nreference: %+v", got, want)
	}
	if got.Cycles < cfg.InjectionInterval {
		t.Fatalf("Cycles = %d; want at least one full injection gap (%d)", got.Cycles, cfg.InjectionInterval)
	}
}
