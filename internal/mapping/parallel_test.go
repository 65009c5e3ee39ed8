package mapping

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"testing"
	"time"

	"snnmap/internal/hw"
	"snnmap/internal/place"
)

// TestFinetuneWorkersBitIdentical verifies the FDConfig.Workers contract on
// an instance spanning more than one E_s chunk (4500 clusters > 4096), so
// every build phase fans out, including against the fullSort oracle.
func TestFinetuneWorkersBitIdentical(t *testing.T) {
	p := randomPCN(t, 99, 4500, 30000)
	mesh := hw.MustMesh(68, 68)
	run := func(cfg FDConfig) ([]int32, FDStats) {
		pl, err := place.Random(p.NumClusters, mesh, rand.New(rand.NewSource(12)))
		if err != nil {
			t.Fatal(err)
		}
		cfg.Potential = L2Sq{}
		cfg.MaxIterations = 6
		stats, err := Finetune(p, pl, cfg)
		if err != nil {
			t.Fatal(err)
		}
		stats.Elapsed = 0
		return pl.PosOf, stats
	}
	oraclePos, oracleStats := run(FDConfig{Workers: 1, fullSort: true})
	for _, workers := range []int{1, 4, 8} {
		pos, stats := run(FDConfig{Workers: workers})
		if stats != oracleStats {
			t.Errorf("workers=%d: stats %+v, oracle %+v", workers, stats, oracleStats)
		}
		if !slices.Equal(pos, oraclePos) {
			t.Errorf("workers=%d: placement differs from oracle", workers)
		}
	}
}

// errCountCtx cancels after a fixed number of Err calls. FinetuneContext
// consults ctx.Err at deterministic points only (function entry, each
// iteration head, every 8192 batch entries) and never from the parallel
// sweep paths, so the cancellation point — and therefore the partial result
// — is reproducible at any worker count.
type errCountCtx struct {
	context.Context
	calls, limit int
}

func (c *errCountCtx) Err() error {
	c.calls++
	if c.calls > c.limit {
		return context.Canceled
	}
	return nil
}

// fdScenario is one cell of the determinism matrix.
type fdScenario struct {
	name string
	cfg  FDConfig // Potential/Workers/fullSort filled in by the test
	ctx  func() context.Context
	// wantCanceled is set for the mid-run cancel scenario.
	wantCanceled bool
}

// TestFDParallelEquivalenceMatrix is the determinism suite: for every
// scenario × potential, the placement must be byte-identical and FDStats
// equal (modulo Elapsed) across Workers ∈ {1, 2, 4, 7} and against the
// fullSort sequential oracle. Run under -race this doubles as the
// data-race check for the build-phase fan-out.
func TestFDParallelEquivalenceMatrix(t *testing.T) {
	mesh := hw.MustMesh(22, 22)
	p := randomPCN(t, 41, 440, 3200)

	defects := hw.NewDefectMap(mesh)
	for _, idx := range []int{3, 57, 170, 300, 441} {
		defects.MarkDead(idx)
	}

	bg := func() context.Context { return context.Background() }
	scenarios := []fdScenario{
		{name: "pristine", cfg: FDConfig{}, ctx: bg},
		{name: "defective", cfg: FDConfig{Defects: defects}, ctx: bg},
		{name: "max-iterations", cfg: FDConfig{MaxIterations: 3}, ctx: bg},
		{name: "budget", cfg: FDConfig{Budget: time.Nanosecond}, ctx: bg},
		{name: "cancel", cfg: FDConfig{}, ctx: func() context.Context {
			return &errCountCtx{Context: context.Background(), limit: 4}
		}, wantCanceled: true},
	}

	for _, sc := range scenarios {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			for _, potName := range []string{"l1", "l1sq", "l2sq", "energy"} {
				pot, err := PotentialByName(potName, hw.DefaultCostModel())
				if err != nil {
					t.Fatal(err)
				}
				run := func(workers int, fullSort bool) ([]int32, FDStats) {
					pl, err := place.Random(p.NumClusters, mesh, rand.New(rand.NewSource(17)))
					if err != nil {
						t.Fatal(err)
					}
					cfg := sc.cfg
					cfg.Potential = pot
					cfg.Workers = workers
					cfg.fullSort = fullSort
					stats, err := FinetuneContext(sc.ctx(), p, pl, cfg)
					if sc.wantCanceled {
						if !errors.Is(err, ErrCanceled) {
							t.Fatalf("%s: got %v, want ErrCanceled", potName, err)
						}
					} else if err != nil {
						t.Fatalf("%s: %v", potName, err)
					}
					stats.Elapsed = 0
					return pl.PosOf, stats
				}
				oraclePos, oracleStats := run(1, true)
				if sc.name == "pristine" && !oracleStats.Converged {
					t.Fatalf("%s: pristine oracle did not converge", potName)
				}
				for _, workers := range []int{1, 2, 4, 7} {
					pos, stats := run(workers, false)
					if stats != oracleStats {
						t.Errorf("%s workers=%d: stats %+v, oracle %+v", potName, workers, stats, oracleStats)
					}
					if !slices.Equal(pos, oraclePos) {
						t.Errorf("%s workers=%d: placement differs from oracle", potName, workers)
					}
				}
			}
		})
	}
}

// TestFDParallelMidBatchCancel drives the in-batch cancellation check
// (every 8192 entries) with a λ=1 sweep over a queue larger than 8192, so
// the break path inside applyBatch executes and yields identical partial
// results at every worker count: the cancel point is worker-independent.
func TestFDParallelMidBatchCancel(t *testing.T) {
	p := randomPCN(t, 7, 8000, 48000)
	mesh := hw.MustMesh(90, 90)
	run := func(workers int, fullSort bool) ([]int32, FDStats) {
		pl, err := place.Random(p.NumClusters, mesh, rand.New(rand.NewSource(3)))
		if err != nil {
			t.Fatal(err)
		}
		ctx := &errCountCtx{Context: context.Background(), limit: 2}
		stats, err := FinetuneContext(ctx, p, pl, FDConfig{
			Potential: L2Sq{},
			Lambda:    1,
			Workers:   workers,
			fullSort:  fullSort,
		})
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("got %v, want ErrCanceled", err)
		}
		stats.Elapsed = 0
		return pl.PosOf, stats
	}
	oraclePos, oracleStats := run(1, true)
	if oracleStats.TensionChecks < 8192 {
		t.Fatalf("batch too small (%d checks) to cross the in-batch cancel point", oracleStats.TensionChecks)
	}
	for _, workers := range []int{1, 4} {
		pos, stats := run(workers, false)
		if stats != oracleStats {
			t.Errorf("workers=%d: stats %+v, oracle %+v", workers, stats, oracleStats)
		}
		if !slices.Equal(pos, oraclePos) {
			t.Errorf("workers=%d: placement differs from oracle", workers)
		}
	}
}

// BenchmarkFinetune tracks sweep throughput and steady-state allocations
// (nextQueue rebuilds the queue in place, so per-iteration allocation
// stays flat). The sweep is sequential at any
// worker count; workers=4 differs from workers=1 by the build phases only.
func BenchmarkFinetune(b *testing.B) {
	p := randomPCN(b, 21, 4000, 24000)
	mesh := hw.MustMesh(64, 64)
	init, err := place.Random(p.NumClusters, mesh, rand.New(rand.NewSource(9)))
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name string
		cfg  FDConfig
	}{
		{"fullsort", FDConfig{Workers: 1, fullSort: true}},
		{"workers=1", FDConfig{Workers: 1}},
		{"workers=4", FDConfig{Workers: 4}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				pl := init.Clone()
				cfg := bc.cfg
				cfg.Potential = L2Sq{}
				cfg.MaxIterations = 8
				if _, err := Finetune(p, pl, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
