package cache

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"snnmap/internal/codec"
	"snnmap/internal/curve"
	"snnmap/internal/hw"
	"snnmap/internal/mapping"
	"snnmap/internal/metrics"
	"snnmap/internal/obs"
	"snnmap/internal/pcn"
	"snnmap/internal/place"
	"snnmap/internal/snn"
)

// testWorkload builds a small random graph, partitions it, and returns
// the cluster graph plus the mesh it maps onto.
func testWorkload(t testing.TB, seed int64) (*pcn.PCN, hw.Mesh) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var b snn.GraphBuilder
	const neurons = 600
	b.AddNeurons(neurons, -1)
	for e := 0; e < 3000; e++ {
		u, v := rng.Intn(neurons), rng.Intn(neurons)
		if u != v {
			b.AddSynapse(u, v, rng.Float64()*9+0.5)
		}
	}
	res, err := pcn.Partition(b.Build(), pcn.PartitionConfig{Constraints: hw.Constraints{NeuronsPerCore: 4}})
	if err != nil {
		t.Fatal(err)
	}
	return res.PCN, hw.MustMesh(14, 14)
}

func newTestCache(t testing.TB, cfg Config) *Cache {
	t.Helper()
	if cfg.Dir == "" {
		cfg.Dir = t.TempDir()
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// spanRecorder is an obs.Sink capturing begin-span names, used to prove
// which pipeline stages a warm run actually executed.
type spanRecorder struct {
	mu    sync.Mutex
	names []string
}

func (r *spanRecorder) Event(e obs.Event) {
	if e.Kind == obs.KindBegin {
		r.mu.Lock()
		r.names = append(r.names, e.Name)
		r.mu.Unlock()
	}
}
func (r *spanRecorder) Close() error { return nil }

func (r *spanRecorder) has(name string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, n := range r.names {
		if n == name {
			return true
		}
	}
	return false
}

func fdTestConfig() *mapping.FDConfig {
	return &mapping.FDConfig{Potential: mapping.L2Sq{}, MaxIterations: 12}
}

func samePlacement(t *testing.T, a, b *place.Placement) {
	t.Helper()
	var ba, bb bytes.Buffer
	if err := codec.WritePlacement(&ba, a); err != nil {
		t.Fatal(err)
	}
	if err := codec.WritePlacement(&bb, b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ba.Bytes(), bb.Bytes()) {
		t.Fatal("placements differ")
	}
}

// TestWarmEqualsColdFullHit is the tentpole invariant: a warm full-hit
// returns a bit-identical Result (placement bytes and FDStats,
// including the cold run's recorded wall clock) while executing none of
// the placement/finetune stages.
func TestWarmEqualsColdFullHit(t *testing.T) {
	p, mesh := testWorkload(t, 1)
	dir := t.TempDir()
	cold := newTestCache(t, Config{Dir: dir})
	cfg := mapping.Config{FD: fdTestConfig(), Cache: cold}
	coldRes, err := mapping.Map(p, mesh, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s := cold.Stats(); s.ResultMisses != 1 || s.ResultHits != 0 {
		t.Fatalf("cold run stats: %+v", s)
	}

	warm := newTestCache(t, Config{Dir: dir})
	rec := &spanRecorder{}
	warmCfg := cfg
	warmCfg.Cache = warm
	warmCfg.Obs = obs.New(obs.Config{Sink: rec})
	warmRes, err := mapping.Map(p, mesh, warmCfg)
	if err != nil {
		t.Fatal(err)
	}
	samePlacement(t, coldRes.Placement, warmRes.Placement)
	if warmRes.FD != coldRes.FD {
		t.Fatalf("FD stats differ: warm %+v cold %+v", warmRes.FD, coldRes.FD)
	}
	if s := warm.Stats(); s.ResultHits != 1 {
		t.Fatalf("warm run stats: %+v", s)
	}
	for _, stage := range []string{"placement", "finetune"} {
		if rec.has(stage) {
			t.Fatalf("warm full hit executed stage %q", stage)
		}
	}
}

// TestInitialPlacementPartialHit deletes the result stage, leaving only
// the cached initial placement: the warm run must skip the curve walk
// but re-run FD, and still produce a result identical to the cold run.
func TestInitialPlacementPartialHit(t *testing.T) {
	p, mesh := testWorkload(t, 2)
	dir := t.TempDir()
	cold := newTestCache(t, Config{Dir: dir})
	cfg := mapping.Config{FD: fdTestConfig(), Cache: cold}
	coldRes, err := mapping.Map(p, mesh, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(filepath.Join(dir, stageResult)); err != nil {
		t.Fatal(err)
	}

	warm := newTestCache(t, Config{Dir: dir})
	rec := &spanRecorder{}
	warmCfg := cfg
	warmCfg.Cache = warm
	warmCfg.Obs = obs.New(obs.Config{Sink: rec})
	warmRes, err := mapping.Map(p, mesh, warmCfg)
	if err != nil {
		t.Fatal(err)
	}
	samePlacement(t, coldRes.Placement, warmRes.Placement)
	if warmRes.FD.Swaps != coldRes.FD.Swaps || warmRes.FD.Iterations != coldRes.FD.Iterations ||
		warmRes.FD.FinalEnergy != coldRes.FD.FinalEnergy {
		t.Fatalf("FD stats differ: warm %+v cold %+v", warmRes.FD, coldRes.FD)
	}
	s := warm.Stats()
	if s.InitialHits != 1 || s.ResultHits != 0 || s.ResultMisses != 1 {
		t.Fatalf("partial-hit stats: %+v", s)
	}
	if rec.has("placement") {
		t.Fatal("initial-placement hit still ran the curve walk")
	}
	if !rec.has("finetune") {
		t.Fatal("partial hit should have re-run FD")
	}
	// The re-run stored the full result: a third run is a full hit.
	third := newTestCache(t, Config{Dir: dir})
	thirdCfg := cfg
	thirdCfg.Cache = third
	if _, err := mapping.Map(p, mesh, thirdCfg); err != nil {
		t.Fatal(err)
	}
	if s := third.Stats(); s.ResultHits != 1 {
		t.Fatalf("result not re-stored after partial hit: %+v", s)
	}
}

// TestExpandCached exercises the layer-spec partition stage.
func TestExpandCached(t *testing.T) {
	net := snn.LeNetMNIST()
	cfg := pcn.DefaultPartition()
	dir := t.TempDir()
	c := newTestCache(t, Config{Dir: dir})
	cold, hit, err := c.Expand(net, cfg)
	if err != nil || hit {
		t.Fatalf("cold expand: hit=%v err=%v", hit, err)
	}
	warm, hit, err := c.Expand(net, cfg)
	if err != nil || !hit {
		t.Fatalf("warm expand: hit=%v err=%v", hit, err)
	}
	var bc, bw bytes.Buffer
	if err := codec.WritePCN(&bc, cold); err != nil {
		t.Fatal(err)
	}
	if err := codec.WritePCN(&bw, warm); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bc.Bytes(), bw.Bytes()) {
		t.Fatal("cached expanded PCN differs")
	}
}

// TestExpandRejectsMultilevelBeforeLookup: pcn.Expand refuses a multilevel
// config, so the cache must too — even when an entry exists under that
// config's key (the multilevel options are not part of a net key).
func TestExpandRejectsMultilevelBeforeLookup(t *testing.T) {
	net := snn.LeNetMNIST()
	flat := pcn.DefaultPartition()
	c := newTestCache(t, Config{})
	if _, _, err := c.Expand(net, flat); err != nil {
		t.Fatal(err)
	}
	cfg := flat
	cfg.Multilevel = &pcn.MultilevelOptions{}
	if partitionNetKey(net, &cfg) != partitionNetKey(net, &flat) {
		t.Fatal("test premise: the multilevel config must key like the stored flat entry")
	}
	p, hit, err := c.Expand(net, cfg)
	if !errors.Is(err, place.ErrBadConfig) || p != nil || hit {
		t.Fatalf("Expand(multilevel) = %v, hit=%v, err=%v; want ErrBadConfig", p, hit, err)
	}
	if s := c.Stats(); s.PartitionHits != 0 || s.PartitionMisses != 1 {
		t.Fatalf("rejected config touched the cache: %+v", s)
	}
}

// TestEvaluateCached exercises the metrics stage, including the
// worker-count independence of the key.
func TestEvaluateCached(t *testing.T) {
	p, mesh := testWorkload(t, 4)
	pl, err := mapping.InitialPlacementDefects(p, mesh, curve.Hilbert{}, nil, hw.Constraints{})
	if err != nil {
		t.Fatal(err)
	}
	cost := hw.DefaultCostModel()
	c := newTestCache(t, Config{})
	cold, hit := c.Evaluate(p, pl, cost, metrics.Options{Congestion: metrics.CongestionExact})
	if hit {
		t.Fatal("first evaluate cannot hit")
	}
	// Different Workers must serve the same entry (excluded from the key).
	warm, hit := c.Evaluate(p, pl, cost, metrics.Options{Congestion: metrics.CongestionExact, Workers: 4})
	if !hit {
		t.Fatal("second evaluate should hit")
	}
	if warm != cold {
		t.Fatalf("cached summary %+v != cold %+v", warm, cold)
	}
	// A different cost model must miss.
	cost2 := cost
	cost2.WireEnergy *= 2
	if _, hit := c.Evaluate(p, pl, cost2, metrics.Options{Congestion: metrics.CongestionExact}); hit {
		t.Fatal("changed cost model should miss")
	}
}

// TestRemapDeltaEquivalence: with RemapDelta on, a defect-map miss over
// a cached pristine result must return exactly Remap applied to the
// cached base placement — and must not be re-stored as a cold result.
func TestRemapDeltaEquivalence(t *testing.T) {
	p, mesh := testWorkload(t, 5)
	dir := t.TempDir()
	base := newTestCache(t, Config{Dir: dir})
	cfg := mapping.Config{FD: fdTestConfig(), Cache: base}
	baseRes, err := mapping.Map(p, mesh, cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Kill the core hosting cluster 0.
	d := hw.NewDefectMap(mesh)
	d.MarkDead(int(baseRes.Placement.PosOf[0]))
	cost := hw.DefaultCostModel()

	// Expected: the incremental repair of the cached pristine placement.
	expected := baseRes.Placement.Clone()
	expectedStats, err := mapping.Remap(p, expected, d, hw.Constraints{}, cost)
	if err != nil {
		t.Fatal(err)
	}

	delta := newTestCache(t, Config{Dir: dir, Cost: cost, RemapDelta: true})
	dcfg := mapping.Config{FD: fdTestConfig(), Defects: d, Cache: delta}
	cr, ok := delta.LoadResult(p, mesh, &dcfg)
	if !ok {
		t.Fatal("remap-delta lookup missed")
	}
	if !cr.Remapped {
		t.Fatal("hit not marked Remapped")
	}
	gotStats, wantStats := cr.RemapStats, expectedStats
	gotStats.Elapsed, wantStats.Elapsed = 0, 0 // wall clock, never comparable
	if gotStats != wantStats {
		t.Fatalf("remap stats %+v != expected %+v", gotStats, wantStats)
	}
	samePlacement(t, expected, cr.Placement)
	if err := cr.Placement.ValidateDefects(d); err != nil {
		t.Fatalf("remapped placement invalid: %v", err)
	}
	if s := delta.Stats(); s.Remaps != 1 {
		t.Fatalf("stats: %+v", s)
	}

	// Without RemapDelta the same lookup is a plain miss.
	plain := newTestCache(t, Config{Dir: dir})
	if _, ok := plain.LoadResult(p, mesh, &dcfg); ok {
		t.Fatal("RemapDelta off must miss on a defect delta")
	}
}

// TestBudgetBypassesCache: wall-clock-budgeted configs are uncacheable;
// MapContext must neither look up nor store.
func TestBudgetBypassesCache(t *testing.T) {
	p, mesh := testWorkload(t, 6)
	c := newTestCache(t, Config{})
	fd := fdTestConfig()
	fd.Budget = 1e9 // 1s: plenty for this size; presence alone must bypass
	cfg := mapping.Config{FD: fd, Cache: c}
	if _, err := mapping.Map(p, mesh, cfg); err != nil {
		t.Fatal(err)
	}
	if s := c.Stats(); s != (Stats{}) {
		t.Fatalf("budgeted run touched the cache: %+v", s)
	}
}

// TestConcurrentReadersWriters hammers one directory from many
// goroutines through independent Cache handles (run under -race).
func TestConcurrentReadersWriters(t *testing.T) {
	p, mesh := testWorkload(t, 7)
	dir := t.TempDir()
	cfg := mapping.Config{FD: fdTestConfig()}
	var want *place.Placement
	var wg sync.WaitGroup
	var mu sync.Mutex
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := New(Config{Dir: dir})
			if err != nil {
				t.Error(err)
				return
			}
			localCfg := cfg
			localCfg.Cache = c
			res, err := mapping.Map(p, mesh, localCfg)
			if err != nil {
				t.Error(err)
				return
			}
			mu.Lock()
			defer mu.Unlock()
			if want == nil {
				want = res.Placement
			} else {
				for j := range want.PosOf {
					if want.PosOf[j] != res.Placement.PosOf[j] {
						t.Errorf("concurrent result diverged at cluster %d", j)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
