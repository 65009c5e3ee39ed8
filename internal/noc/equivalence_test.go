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

// TestEventEngineMatchesReference is the equivalence contract: on a golden
// corpus spanning pristine and faulty meshes, the calendar engine behind Simulate must produce a Result
// bit-identical to the original per-cycle simulateReference scan — every
// field, including traversal vectors, float aggregates and queue peaks.
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
		{"pristine/heavy", Config{SpikesPerUnit: 3}},
		{"dead-cores/fault-aware", Config{Defects: deadMap}},
		{"failed-links/fault-aware", Config{Defects: linkMap}},
		{"mixed/fault-aware", Config{Defects: mixedMap}},
		// The short watchdog makes the in-flight age cap bite while spikes
		// queue behind the fault boundary — exercising the TTL-drop path
		// without simulating a million cycles.
		{"mixed/age-cap", Config{Defects: mixedMap, SpikesPerUnit: 3, limits: limits{watchdogCycles: 20}}},
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
				if tc.cfg.limits.watchdogCycles > 0 {
					// The age cap must drop spikes the default limits deliver.
					uncapped := tc.cfg
					uncapped.limits = limits{}
					free, err := simulateReference(context.Background(), p, pl, uncapped)
					if err != nil {
						t.Fatal(err)
					}
					if want.Stats.NetworkDrops <= free.Stats.NetworkDrops {
						t.Fatalf("seed %d: age cap never bit: %d network drops, %d without it", seed, want.Stats.NetworkDrops, free.Stats.NetworkDrops)
					}
				}
			}
		})
	}
}

// TestEventEngineMatchesReferenceErrorPaths pins the limit behavior: both
// drivers must fail identically when the cycle budget cuts a run short.
func TestEventEngineMatchesReferenceErrorPaths(t *testing.T) {
	p, pl := randomCorpusWorkload(t, 1, 8, 8, 30, 120)
	for _, cfg := range []Config{
		{limits: limits{maxCycles: 3}},
		{SpikesPerUnit: 4, limits: limits{maxCycles: 20}},
	} {
		got, errGot := Simulate(p, pl, cfg)
		want, errWant := simulateReference(context.Background(), p, pl, cfg)
		if errGot == nil || errWant == nil {
			t.Fatalf("maxCycles=%d: expected both drivers to fail, got event=%v reference=%v", cfg.limits.maxCycles, errGot, errWant)
		}
		if !errors.Is(errGot, ErrLivelock) || errGot.Error() != errWant.Error() {
			t.Fatalf("maxCycles=%d: error mismatch:\nevent:     %v\nreference: %v", cfg.limits.maxCycles, errGot, errWant)
		}
		if !reflect.DeepEqual(got.RouterTraversals, want.RouterTraversals) {
			t.Fatalf("maxCycles=%d: partial traversals diverge", cfg.limits.maxCycles)
		}
	}
}
