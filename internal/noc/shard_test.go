package noc

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"testing"

	"snnmap/internal/hw"
	"snnmap/internal/obs"
	"snnmap/internal/pcn"
	"snnmap/internal/place"
	"snnmap/internal/snn"
)

// shardSweep is the Config.Shards axis of the determinism sweep. Shards is
// accepted and ignored, so every count must give the same bits.
var shardSweep = []int{1, 2, 3, 7}

// TestShardedMatchesReferenceSweep is the determinism contract across
// engines and shard counts: for every workload, with unbounded queues (the
// calendar engine) and with bounded ones (the queue engine), every shard
// count must produce a Result bit-identical to simulateReference — every
// field, including traversal vectors, drop counters, float aggregates and
// queue peaks. Every case is one the reference completes.
func TestShardedMatchesReferenceSweep(t *testing.T) {
	workloads := []struct {
		name string
		cfg  Config
		load func(testing.TB) (*pcn.PCN, *place.Placement)
	}{
		{"sparse64x64", Config{InjectionInterval: 24}, sparse64x64Workload},
		{"long-tail", Config{InjectionInterval: 4}, longTailWorkload},
		{"faulted-links", Config{FaultAware: true}, faultedLinksWorkload},
	}
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			p, pl := wl.load(t)
			for _, queueCap := range []int{0, 3} {
				cfg := wl.cfg
				cfg.QueueCap = queueCap
				if wl.name == "faulted-links" {
					cfg.Defects = faultedLinksDefects(t, pl.Mesh)
					if queueCap > 0 {
						// Detours jam bounded queues; a short watchdog
						// window lets the age cap drop the jammed flits
						// (about 60 % of the spikes) so the run ends.
						cfg.WatchdogCycles = 2000
					}
				}
				want, err := simulateReference(context.Background(), p, pl, cfg)
				if err != nil {
					t.Fatalf("QueueCap=%d: reference: %v", queueCap, err)
				}
				if want.Delivered == 0 || queueCap > 0 && want.Stalls == 0 {
					t.Fatalf("QueueCap=%d: run does not exercise the engine: %+v", queueCap, want)
				}
				for _, shards := range shardSweep {
					shardCfg := cfg
					shardCfg.Shards = shards
					got, err := Simulate(p, pl, shardCfg)
					if err != nil {
						t.Fatalf("QueueCap=%d shards=%d: %v", queueCap, shards, err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Errorf("QueueCap=%d shards=%d: Result diverges from reference:\nsharded:   %+v\nreference: %+v", queueCap, shards, got, want)
					}
				}
			}
		})
	}
}

// faultedLinksWorkload reuses the random corpus generator on a 16×16 mesh
// sized so every shard count in the sweep gets multi-row strips.
func faultedLinksWorkload(t testing.TB) (*pcn.PCN, *place.Placement) {
	return randomCorpusWorkload(t, 9, 16, 16, 120, 600)
}

func faultedLinksDefects(t testing.TB, mesh hw.Mesh) *hw.DefectMap {
	t.Helper()
	d := hw.InjectUniform(mesh, 0, 0.10, 13)
	if d.NumFailedLinks() == 0 {
		t.Fatal("seed produced no failed links; pick another seed")
	}
	return d
}

// TestShardedMatchesReferenceCorpus runs the full golden equivalence corpus
// (routings, bounded queues, dead cores, failed links, sparse injection)
// through both engines at shard counts 2 and 3, asserting bit-identity with
// the reference.
func TestShardedMatchesReferenceCorpus(t *testing.T) {
	mesh := hw.MustMesh(12, 12)
	deadMap := hw.InjectUniform(mesh, 0.05, 0, 7)
	linkMap := hw.InjectUniform(mesh, 0, 0.08, 11)
	mixedMap := hw.InjectUniform(mesh, 0.05, 0.05, 3)
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
		{"failed-links/fault-aware", Config{Defects: linkMap, FaultAware: true}},
		{"failed-links/o1turn", Config{Routing: RouteO1Turn, Defects: linkMap, FaultAware: true}},
		{"mixed/bounded-fault-aware", Config{QueueCap: 4, Defects: mixedMap, FaultAware: true, WatchdogCycles: 2000}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(1); seed <= 2; seed++ {
				p, pl := randomCorpusWorkload(t, seed, 12, 12, 60, 300)
				want, errWant := simulateReference(context.Background(), p, pl, tc.cfg)
				for _, shards := range []int{2, 3} {
					cfg := tc.cfg
					cfg.Shards = shards
					got, errGot := Simulate(p, pl, cfg)
					if (errGot == nil) != (errWant == nil) {
						t.Fatalf("seed %d shards=%d: error mismatch: sharded=%v reference=%v", seed, shards, errGot, errWant)
					}
					if errGot != nil {
						if errGot.Error() != errWant.Error() {
							t.Fatalf("seed %d shards=%d: error text mismatch:\nsharded:   %v\nreference: %v", seed, shards, errGot, errWant)
						}
						continue
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("seed %d shards=%d: Result mismatch:\nsharded:   %+v\nreference: %+v", seed, shards, got, want)
					}
				}
			}
		})
	}
}

// TestShardedCrossBoundaryDetour pins a detour around a failed vertical
// link between rows 1 and 2, the boundary a row split into 2 or 4 strips
// would put there. Every shard count must deliver the spike and agree with
// the reference bit for bit.
func TestShardedCrossBoundaryDetour(t *testing.T) {
	p := edgePCN(t, [][3]float64{{0, 1, 1}}, 2)
	mesh := hw.MustMesh(4, 3)
	// src at (0,0), dst at (3,0): straight XY path runs down column 0.
	pl := placeAt(t, p, mesh, mesh.Coord(0), mesh.Coord(9))
	d := hw.NewDefectMap(mesh)
	// Fail the vertical link between rows 1 and 2 in column 0.
	if err := d.FailLink(3, 6); err != nil {
		t.Fatal(err)
	}
	cfg := Config{Defects: d, FaultAware: true}
	want, err := simulateReference(context.Background(), p, pl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want.Delivered != 1 {
		t.Fatalf("reference did not deliver around the fault: %+v", want)
	}
	for _, shards := range []int{2, 4} {
		shardCfg := cfg
		shardCfg.Shards = shards
		got, err := Simulate(p, pl, shardCfg)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("shards=%d: detour across strip boundary diverges:\nsharded:   %+v\nreference: %+v", shards, got, want)
		}
	}
}

// TestShardedErrorPaths pins failure equivalence: a MaxCycles overrun and a
// pre-canceled context must produce byte-identical error text and matching
// partial traversal vectors at every shard count.
func TestShardedErrorPaths(t *testing.T) {
	p, pl := randomCorpusWorkload(t, 1, 8, 8, 30, 120)
	for _, cfg := range []Config{
		{MaxCycles: 3},
		{InjectionInterval: 500, SpikesPerUnit: 4, MaxCycles: 750},
	} {
		want, errWant := simulateReference(context.Background(), p, pl, cfg)
		if errWant == nil {
			t.Fatalf("MaxCycles=%d: expected the reference to fail", cfg.MaxCycles)
		}
		for _, shards := range shardSweep {
			shardCfg := cfg
			shardCfg.Shards = shards
			got, errGot := Simulate(p, pl, shardCfg)
			if errGot == nil || !errors.Is(errGot, ErrLivelock) || errGot.Error() != errWant.Error() {
				t.Fatalf("MaxCycles=%d shards=%d: error mismatch:\nsharded:   %v\nreference: %v", cfg.MaxCycles, shards, errGot, errWant)
			}
			if !reflect.DeepEqual(got.RouterTraversals, want.RouterTraversals) {
				t.Fatalf("MaxCycles=%d shards=%d: partial traversals diverge", cfg.MaxCycles, shards)
			}
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := SimulateContext(ctx, p, pl, Config{Shards: 3}); !errors.Is(err, ErrCanceled) {
		t.Fatalf("pre-canceled sharded run: got %v, want ErrCanceled", err)
	}
}

// TestShardsValidation covers the Shards knob's edges: negative counts are
// rejected by Validate, counts exceeding the mesh's rows are rejected when
// the mesh is known, and a shard count equal to the row count works and
// stays bit-identical.
func TestShardsValidation(t *testing.T) {
	if err := (Config{Shards: -1}).Validate(); !errors.Is(err, ErrBadConfig) {
		t.Errorf("Shards=-1: got %v, want ErrBadConfig", err)
	}
	for _, shards := range []int{0, 1, 4} {
		if err := (Config{Shards: shards}).Validate(); err != nil {
			t.Errorf("Shards=%d must validate: %v", shards, err)
		}
	}

	p := edgePCN(t, [][3]float64{{0, 1, 1}}, 2)
	mesh := hw.MustMesh(3, 3)
	pl := placeAt(t, p, mesh, mesh.Coord(0), mesh.Coord(2))
	if _, err := Simulate(p, pl, Config{Shards: 4}); !errors.Is(err, ErrBadConfig) {
		t.Errorf("Shards=4 on a 3-row mesh: got %v, want ErrBadConfig", err)
	}

	want, err := simulateReference(context.Background(), p, pl, Config{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Simulate(p, pl, Config{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Shards=3 diverges:\nsharded:   %+v\nreference: %+v", got, want)
	}
}

// TestShardsOneStartsNoWorkers: both engines run on the calling goroutine
// at every shard count, so a progress callback, which runs inside the cycle
// loop, sees no goroutine beyond those alive before the run.
func TestShardsOneStartsNoWorkers(t *testing.T) {
	p, pl := faultedLinksWorkload(t)
	for _, queueCap := range []int{0, 8} {
		for _, shards := range []int{0, 1, 2} {
			base, extra := runtime.NumGoroutine(), 0
			o := obs.New(obs.Config{OnProgress: func(obs.Progress) { extra = max(extra, runtime.NumGoroutine()-base) }})
			if _, err := Simulate(p, pl, Config{QueueCap: queueCap, Shards: shards, Obs: o}); err != nil {
				t.Fatal(err)
			}
			if extra > 0 {
				t.Errorf("QueueCap=%d shards=%d: %d goroutines beyond the caller's during the run", queueCap, shards, extra)
			}
		}
	}
}

func TestClampShards(t *testing.T) {
	for _, tc := range []struct{ n, rows, want int }{
		{0, 8, 1},
		{-3, 8, 1},
		{1, 8, 1},
		{4, 8, 4},
		{8, 8, 8},
		{16, 8, 8},
	} {
		if got := ClampShards(tc.n, tc.rows); got != tc.want {
			t.Errorf("ClampShards(%d, %d) = %d, want %d", tc.n, tc.rows, got, tc.want)
		}
	}
}

// hotSpotWorkload is the deep-queue corpus entry: four sources, one at the
// end of each arm of a cross centered on an 8×8 mesh's core 27, each stream
// 4000 back-to-back spikes at it. The center's local port takes up to four
// flits a cycle and delivers one, so its queue climbs past 4096 while its
// head keeps moving — the ring grows while wrapped, many times, inside a run.
func hotSpotWorkload(t testing.TB) (*pcn.PCN, *place.Placement) {
	t.Helper()
	var b snn.GraphBuilder
	b.AddNeurons(5, -1)
	for src := 0; src < 4; src++ {
		b.AddSynapse(src, 4, 4000)
	}
	res, err := pcn.Partition(b.Build(), pcn.PartitionConfig{Constraints: hw.Constraints{NeuronsPerCore: 1}})
	if err != nil {
		t.Fatal(err)
	}
	mesh := hw.MustMesh(8, 8)
	pl, err := place.New(res.PCN.NumClusters, mesh)
	if err != nil {
		t.Fatal(err)
	}
	for c, core := range []int32{3, 31, 59, 24, 27} { // top, right, bottom, left, center
		pl.Assign(c, core)
	}
	return res.PCN, pl
}

// TestShardedDeepQueueMatchesReference runs the hot spot through both
// engines against the reference, on a pristine mesh, on a faulted one with
// detours (the calendar), and with a queue bound the hot port runs into (the
// queue engine).
func TestShardedDeepQueueMatchesReference(t *testing.T) {
	p, pl := hotSpotWorkload(t)
	faults := hw.NewDefectMap(pl.Mesh)
	for _, link := range [][2]int{{11, 19}, {25, 26}} { // one link on the top arm, one on the left
		if err := faults.FailLink(link[0], link[1]); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"pristine", Config{}},
		{"faulted", Config{Defects: faults, FaultAware: true}},
		{"bounded", Config{QueueCap: 4500}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want, err := simulateReference(context.Background(), p, pl, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if want.MaxQueueLen <= 4096 || want.Delivered == 0 {
				t.Fatalf("hot spot too shallow to grow a wrapped ring past 4096: %+v", want)
			}
			if tc.cfg.QueueCap > 0 && want.Stalls == 0 {
				t.Fatalf("queue bound never bit: %+v", want)
			}
			if tc.cfg.FaultAware && want.Stats.Detours == 0 {
				t.Fatalf("no detours on the faulted mesh: %+v", want)
			}
			for _, shards := range shardSweep {
				cfg := tc.cfg
				cfg.Shards = shards
				got, err := Simulate(p, pl, cfg)
				if err != nil {
					t.Fatalf("shards=%d: %v", shards, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("shards=%d: Result diverges from reference:\ngot  %+v\nwant %+v", shards, got, want)
				}
			}
		})
	}
}
