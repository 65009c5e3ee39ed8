package cache

import (
	"bytes"
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

// TestDeletedResultReplaysCold deletes the result stage between runs:
// the next run must replay placement and FD cold, produce the cold run's
// placement and FD statistics, and store the result again.
func TestDeletedResultReplaysCold(t *testing.T) {
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

	replay := newTestCache(t, Config{Dir: dir})
	rec := &spanRecorder{}
	replayCfg := cfg
	replayCfg.Cache = replay
	replayCfg.Obs = obs.New(obs.Config{Sink: rec})
	replayRes, err := mapping.Map(p, mesh, replayCfg)
	if err != nil {
		t.Fatal(err)
	}
	samePlacement(t, coldRes.Placement, replayRes.Placement)
	got, want := replayRes.FD, coldRes.FD
	got.Elapsed, want.Elapsed = 0, 0 // wall clock, never comparable
	if got != want {
		t.Fatalf("FD stats differ: replay %+v cold %+v", replayRes.FD, coldRes.FD)
	}
	if s := replay.Stats(); s.ResultHits != 0 || s.ResultMisses != 1 || s.Corrupt != 0 {
		t.Fatalf("replay stats: %+v", s)
	}
	for _, stage := range []string{"placement", "finetune"} {
		if !rec.has(stage) {
			t.Fatalf("replay after deletion skipped stage %q", stage)
		}
	}
	// The replay stored the result again: a third run is a hit.
	third := newTestCache(t, Config{Dir: dir})
	thirdCfg := cfg
	thirdCfg.Cache = third
	if _, err := mapping.Map(p, mesh, thirdCfg); err != nil {
		t.Fatal(err)
	}
	if s := third.Stats(); s.ResultHits != 1 {
		t.Fatalf("result not re-stored after deletion: %+v", s)
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
	cold, hit := c.Evaluate(p, pl, cost, metrics.Options{})
	if hit {
		t.Fatal("first evaluate cannot hit")
	}
	// Different Workers must serve the same entry (excluded from the key).
	warm, hit := c.Evaluate(p, pl, cost, metrics.Options{Workers: 4})
	if !hit {
		t.Fatal("second evaluate should hit")
	}
	if warm != cold {
		t.Fatalf("cached summary %+v != cold %+v", warm, cold)
	}
	// A different cost model must miss.
	cost2 := cost
	cost2.WireEnergy *= 2
	if _, hit := c.Evaluate(p, pl, cost2, metrics.Options{}); hit {
		t.Fatal("changed cost model should miss")
	}
	// So must a different congestion mode.
	if _, hit := c.Evaluate(p, pl, cost, metrics.Options{Congestion: metrics.CongestionSkip}); hit {
		t.Fatal("changed congestion mode should miss")
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
