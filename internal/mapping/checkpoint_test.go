package mapping

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"snnmap/internal/hw"
	"snnmap/internal/place"
)

// finalState strips the wall-clock from FDStats so runs compare.
func finalState(pos []int32, stats FDStats) ([]int32, FDStats) {
	stats.Elapsed = 0
	return pos, stats
}

// TestResumeEquivalenceMatrix is the tentpole contract: resuming from a
// snapshot taken at any checkpoint interval reproduces the uninterrupted
// run's placement and FDStats bit-identically, for workers ∈ {1, 2, 4, 7}.
// The snapshots are collected from a sequential run and resumed at every
// worker count, so the matrix also re-verifies the Workers contract across
// the serialization boundary of the engine state. Run under -race this
// doubles as the data-race check for the resumed run's parallel phases.
func TestResumeEquivalenceMatrix(t *testing.T) {
	mesh := hw.MustMesh(22, 22)
	p := randomPCN(t, 41, 440, 3200)
	newPl := func() *place.Placement {
		pl, err := place.Random(p.NumClusters, mesh, rand.New(rand.NewSource(17)))
		if err != nil {
			t.Fatal(err)
		}
		return pl
	}

	// Uninterrupted oracle.
	oraclePl := newPl()
	oracleStats, err := Finetune(p, oraclePl, FDConfig{Potential: L2Sq{}, Workers: 1, fullSort: true})
	if err != nil {
		t.Fatal(err)
	}
	oraclePos, oracleStats := finalState(oraclePl.PosOf, oracleStats)
	if oracleStats.Iterations < 6 {
		t.Fatalf("oracle converged in %d iterations; too few to exercise interval snapshots", oracleStats.Iterations)
	}

	// Checkpointing must not perturb the run, and every interval must fire.
	var snaps []*Snapshot
	ckPl := newPl()
	ckStats, err := Finetune(p, ckPl, FDConfig{Potential: L2Sq{}, Workers: 1, Checkpoint: &CheckpointConfig{
		Interval: 2,
		Fn:       func(s *Snapshot) error { snaps = append(snaps, s); return nil },
	}})
	if err != nil {
		t.Fatal(err)
	}
	ckPos, ckStats := finalState(ckPl.PosOf, ckStats)
	if ckStats != oracleStats || !slices.Equal(ckPos, oraclePos) {
		t.Fatalf("checkpointing perturbed the run: stats %+v, oracle %+v", ckStats, oracleStats)
	}
	if want := (oracleStats.Iterations - 1) / 2; len(snaps) != want {
		t.Fatalf("interval 2 over %d iterations produced %d snapshots, want %d", oracleStats.Iterations, len(snaps), want)
	}

	// A canceled run must hand over its final loop-head state too.
	cancelPl := newPl()
	var cancelSnap *Snapshot
	_, err = FinetuneContext(&errCountCtx{Context: context.Background(), limit: 4}, p, cancelPl, FDConfig{
		Potential: L2Sq{},
		Checkpoint: &CheckpointConfig{
			Fn: func(s *Snapshot) error { cancelSnap = s; return nil },
		},
	})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("got %v, want ErrCanceled", err)
	}
	if cancelSnap == nil {
		t.Fatal("canceled run produced no snapshot")
	}
	snaps = append(snaps, cancelSnap)

	for i, snap := range snaps {
		if err := snap.Validate(); err != nil {
			t.Fatalf("snapshot %d invalid: %v", i, err)
		}
		for _, workers := range []int{1, 2, 4, 7} {
			pl, stats, err := ResumeFinetune(context.Background(), p, snap, FDConfig{Potential: L2Sq{}, Workers: workers})
			if err != nil {
				t.Fatalf("snapshot %d (iteration %d) workers=%d: %v", i, snap.Stats.Iterations, workers, err)
			}
			pos, stats := finalState(pl.PosOf, stats)
			if stats != oracleStats {
				t.Errorf("snapshot %d (iteration %d) workers=%d: stats %+v, oracle %+v",
					i, snap.Stats.Iterations, workers, stats, oracleStats)
			}
			if !slices.Equal(pos, oraclePos) {
				t.Errorf("snapshot %d (iteration %d) workers=%d: placement differs from oracle",
					i, snap.Stats.Iterations, workers)
			}
		}
	}

	// Snapshots are deep copies: resuming twice from the same snapshot gives
	// the same answer, and never mutates the snapshot's own placement.
	snap := snaps[0]
	before := slices.Clone(snap.Placement.PosOf)
	if _, _, err := ResumeFinetune(context.Background(), p, snap, FDConfig{Potential: L2Sq{}}); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(before, snap.Placement.PosOf) {
		t.Error("resume mutated the snapshot's placement")
	}
}

// TestResumeRejectsMismatches pins the fingerprint checks: a resume whose
// config or PCN does not match the snapshot fails with ErrBadConfig instead
// of silently diverging.
func TestResumeRejectsMismatches(t *testing.T) {
	mesh := hw.MustMesh(8, 8)
	p := randomPCN(t, 5, 60, 400)
	pl, err := place.Random(p.NumClusters, mesh, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	var snap *Snapshot
	if _, err := Finetune(p, pl, FDConfig{Potential: L2Sq{}, Checkpoint: &CheckpointConfig{
		Interval: 1,
		Fn: func(s *Snapshot) error {
			if snap == nil {
				snap = s
			}
			return nil
		},
	}}); err != nil {
		t.Fatal(err)
	}
	if snap == nil {
		t.Fatal("no snapshot captured")
	}
	other := randomPCN(t, 6, 61, 400)
	cases := []struct {
		name string
		run  func() error
	}{
		{"wrong potential", func() error {
			_, _, err := ResumeFinetune(context.Background(), p, snap, FDConfig{Potential: L1{}})
			return err
		}},
		{"wrong lambda", func() error {
			_, _, err := ResumeFinetune(context.Background(), p, snap, FDConfig{Potential: L2Sq{}, Lambda: 0.5})
			return err
		}},
		{"wrong mingain", func() error {
			_, _, err := ResumeFinetune(context.Background(), p, snap, FDConfig{Potential: L2Sq{}, MinGain: 123})
			return err
		}},
		{"wrong pcn", func() error {
			_, _, err := ResumeFinetune(context.Background(), other, snap, FDConfig{Potential: L2Sq{}})
			return err
		}},
		{"no pcn anywhere", func() error {
			s2 := *snap
			s2.PCN = nil
			_, _, err := ResumeFinetune(context.Background(), nil, &s2, FDConfig{Potential: L2Sq{}})
			return err
		}},
	}
	for _, tc := range cases {
		if err := tc.run(); !errors.Is(err, ErrBadConfig) {
			t.Errorf("%s: got %v, want ErrBadConfig", tc.name, err)
		}
	}
	// The embedded PCN alone suffices.
	if _, _, err := ResumeFinetune(context.Background(), nil, snap, FDConfig{Potential: L2Sq{}}); err != nil {
		t.Errorf("resume from embedded PCN: %v", err)
	}
}

// TestFDConfigValidate pins the satellite contract: invalid configurations
// are rejected with ErrBadConfig at the top of Finetune/FinetuneContext.
func TestFDConfigValidate(t *testing.T) {
	valid := FDConfig{Potential: L2Sq{}, Lambda: 0.3}
	if err := valid.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	mutate := []struct {
		name string
		f    func(*FDConfig)
		// defaulted marks fields Finetune resolves before validating, so
		// only a direct Validate call sees them as invalid.
		defaulted bool
	}{
		{"nil potential", func(c *FDConfig) { c.Potential = nil }, true},
		{"negative lambda", func(c *FDConfig) { c.Lambda = -0.1 }, false},
		{"lambda above one", func(c *FDConfig) { c.Lambda = 1.5 }, false},
		{"NaN lambda", func(c *FDConfig) { c.Lambda = math.NaN() }, false},
		{"negative mingain", func(c *FDConfig) { c.MinGain = -1 }, false},
		{"negative max iterations", func(c *FDConfig) { c.MaxIterations = -2 }, false},
		{"negative budget", func(c *FDConfig) { c.Budget = -time.Second }, false},
		{"negative workers", func(c *FDConfig) { c.Workers = -4 }, false},
		{"negative spare rows", func(c *FDConfig) { c.Constraints.SpareRows = -1 }, false},
		{"negative checkpoint interval", func(c *FDConfig) {
			c.Checkpoint = &CheckpointConfig{Interval: -1, Fn: func(*Snapshot) error { return nil }}
		}, false},
		{"checkpoint without fn", func(c *FDConfig) { c.Checkpoint = &CheckpointConfig{Interval: 4} }, false},
	}
	p := randomPCN(t, 9, 12, 60)
	mesh := hw.MustMesh(4, 4)
	for _, m := range mutate {
		cfg := valid
		m.f(&cfg)
		if err := cfg.Validate(); !errors.Is(err, ErrBadConfig) {
			t.Errorf("%s: Validate returned %v, want ErrBadConfig", m.name, err)
		}
		if m.defaulted {
			continue
		}
		pl, err := place.Random(p.NumClusters, mesh, rand.New(rand.NewSource(1)))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Finetune(p, pl, cfg); !errors.Is(err, ErrBadConfig) {
			t.Errorf("%s: Finetune returned %v, want ErrBadConfig", m.name, err)
		}
	}
	// Zero-value Lambda and Potential resolve to defaults before validation.
	pl, err := place.Random(p.NumClusters, mesh, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Finetune(p, pl, FDConfig{}); err != nil {
		t.Errorf("zero config should run with defaults, got %v", err)
	}
}

// TestCheckpointFnError pins the abort contract: a failing checkpoint
// callback stops the run and surfaces the error, both from an interval
// snapshot and from the cancellation snapshot (where it joins ErrCanceled).
func TestCheckpointFnError(t *testing.T) {
	p := randomPCN(t, 13, 80, 600)
	mesh := hw.MustMesh(9, 9)
	boom := fmt.Errorf("disk full")

	pl, err := place.Random(p.NumClusters, mesh, rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	_, err = Finetune(p, pl, FDConfig{Potential: L2Sq{}, Checkpoint: &CheckpointConfig{
		Interval: 1,
		Fn:       func(*Snapshot) error { return boom },
	}})
	if !errors.Is(err, boom) {
		t.Errorf("interval snapshot failure: got %v, want wrapped %v", err, boom)
	}

	pl2, err := place.Random(p.NumClusters, mesh, rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	_, err = FinetuneContext(&errCountCtx{Context: context.Background(), limit: 2}, p, pl2, FDConfig{
		Potential:  L2Sq{},
		Checkpoint: &CheckpointConfig{Fn: func(*Snapshot) error { return boom }},
	})
	if !errors.Is(err, boom) || !errors.Is(err, ErrCanceled) {
		t.Errorf("cancellation snapshot failure: got %v, want both ErrCanceled and %v", err, boom)
	}
}

// TestSnapshotValidate corrupts every field class of a genuine snapshot and
// checks Validate rejects it.
func TestSnapshotValidate(t *testing.T) {
	p := randomPCN(t, 3, 40, 300)
	mesh := hw.MustMesh(7, 7)
	pl, err := place.Random(p.NumClusters, mesh, rand.New(rand.NewSource(8)))
	if err != nil {
		t.Fatal(err)
	}
	var base *Snapshot
	if _, err := Finetune(p, pl, FDConfig{Potential: L2Sq{}, Checkpoint: &CheckpointConfig{
		Interval: 1,
		Fn: func(s *Snapshot) error {
			if base == nil {
				base = s
			}
			return nil
		},
	}}); err != nil {
		t.Fatal(err)
	}
	if base == nil {
		t.Fatal("no snapshot captured")
	}
	if err := base.Validate(); err != nil {
		t.Fatalf("genuine snapshot invalid: %v", err)
	}
	// Each corruption works on its own deep-enough copy.
	corrupt := []struct {
		name string
		f    func(*Snapshot)
	}{
		{"nil placement", func(s *Snapshot) { s.Placement = nil }},
		{"cluster count mismatch", func(s *Snapshot) { s.Clusters++ }},
		{"negative edges", func(s *Snapshot) { s.Edges = -1 }},
		{"short force array", func(s *Snapshot) { s.Force = s.Force[:8] }},
		{"NaN force", func(s *Snapshot) { s.Force = slices.Clone(s.Force); s.Force[0] = math.NaN() }},
		{"queue length mismatch", func(s *Snapshot) { s.QueueTensions = s.QueueTensions[:0] }},
		{"queue id out of range", func(s *Snapshot) { s.QueueIDs = slices.Clone(s.QueueIDs); s.QueueIDs[0] = 1 << 30 }},
		{"off-mesh right pair", func(s *Snapshot) {
			// Cell at the last column cannot pair rightward.
			s.QueueIDs = slices.Clone(s.QueueIDs)
			s.QueueIDs[0] = int32(s.Placement.Mesh.Cols-1) * 2
		}},
		{"off-mesh down pair", func(s *Snapshot) {
			// Cell in the last row cannot pair downward.
			s.QueueIDs = slices.Clone(s.QueueIDs)
			last := (s.Placement.Mesh.Rows - 1) * s.Placement.Mesh.Cols
			s.QueueIDs[0] = int32(last)*2 + 1
		}},
		{"duplicate queue id", func(s *Snapshot) {
			s.QueueIDs = slices.Clone(s.QueueIDs)
			s.QueueIDs[1] = s.QueueIDs[0]
		}},
		{"NaN tension", func(s *Snapshot) { s.QueueTensions = slices.Clone(s.QueueTensions); s.QueueTensions[0] = math.NaN() }},
		{"bad lambda", func(s *Snapshot) { s.Lambda = 2 }},
		{"negative mingain", func(s *Snapshot) { s.MinGain = -1 }},
		{"infinite potential sample", func(s *Snapshot) { s.PotUnit = math.Inf(1) }},
		{"NaN energy", func(s *Snapshot) { s.Stats.FinalEnergy = math.NaN() }},
		{"negative iterations", func(s *Snapshot) { s.Stats.Iterations = -1 }},
		{"negative elapsed", func(s *Snapshot) { s.Stats.Elapsed = -time.Second }},
	}
	if len(base.QueueIDs) < 2 {
		t.Fatalf("snapshot queue too small (%d) for corruption cases", len(base.QueueIDs))
	}
	for _, tc := range corrupt {
		s := *base
		tc.f(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: Validate accepted the corrupted snapshot", tc.name)
		}
	}
	var nilSnap *Snapshot
	if err := nilSnap.Validate(); err == nil {
		t.Error("nil snapshot accepted")
	}
}

// TestMapContextSnapshotOnCancel pins the pipeline contract: a canceled
// MapContext returns the latest snapshot alongside ErrCanceled — with no
// user checkpoint config at all — and resuming it completes to the
// uninterrupted pipeline's placement.
func TestMapContextSnapshotOnCancel(t *testing.T) {
	p := randomPCN(t, 23, 100, 900)
	mesh := hw.MustMesh(10, 10)
	cfg := Config{Curve: nil, FD: &FDConfig{Potential: L2Sq{}}}

	oracle, err := Map(p, mesh, cfg)
	if err != nil {
		t.Fatal(err)
	}

	res, err := MapContext(&errCountCtx{Context: context.Background(), limit: 6}, p, mesh, cfg)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("got %v, want ErrCanceled", err)
	}
	if res.Snapshot == nil {
		t.Fatal("canceled MapContext returned no snapshot")
	}
	if res.Placement == nil {
		t.Fatal("canceled MapContext returned no partial placement")
	}

	pl, stats, err := ResumeFinetune(context.Background(), p, res.Snapshot, FDConfig{Potential: L2Sq{}})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(pl.PosOf, oracle.Placement.PosOf) {
		t.Error("resumed pipeline placement differs from the uninterrupted run")
	}
	ws, os := stats, oracle.FD
	ws.Elapsed, os.Elapsed = 0, 0
	if ws != os {
		t.Errorf("resumed stats %+v, uninterrupted %+v", ws, os)
	}

	// A successful run clears the teed snapshot.
	if oracle.Snapshot != nil {
		t.Error("successful Map left a snapshot in the result")
	}
}
