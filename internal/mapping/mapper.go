package mapping

import (
	"context"
	"fmt"
	"time"

	"snnmap/internal/curve"
	"snnmap/internal/hw"
	"snnmap/internal/obs"
	"snnmap/internal/pcn"
	"snnmap/internal/place"
)

// Sentinel errors raised by the mapping pipeline (re-exported from
// internal/place, the bottom of the import graph, so errors.Is works against
// either package).
var (
	// ErrUnplaceable reports that no legal placement exists on the healthy
	// portion of the mesh.
	ErrUnplaceable = place.ErrUnplaceable
	// ErrCanceled reports that the caller's context canceled the operation.
	ErrCanceled = place.ErrCanceled
	// ErrBadConfig reports an invalid FDConfig (see FDConfig.Validate), a
	// resume whose config/PCN does not match its snapshot, or a placement
	// handed to Finetune, Remap or RemapRows that is not a bijection of the
	// PCN's clusters onto in-mesh cells, or a Config whose FD phase names
	// another fault model than the pipeline's.
	ErrBadConfig = place.ErrBadConfig
)

// Config describes one complete mapping pipeline: an initial placement
// strategy followed by optional FD fine-tuning. The paper's proposed
// approach is {Curve: Hilbert, FD with the L2Sq potential} — method j of
// Figure 8.
type Config struct {
	// Curve selects the space-filling curve for the initial placement;
	// nil means the Hilbert curve.
	Curve curve.Curve
	// FD enables Force-Directed fine-tuning when non-nil. A second descent
	// of the exact M_ec objective is a Finetune call on the result with
	// EnergyPotential (Eq. 25). The phase runs under the pipeline's Defects
	// and Constraints: its own must be unset (nil, zero) or the same map and
	// the same constraints, else MapContext fails with ErrBadConfig.
	FD *FDConfig
	// Workers is ignored: the initial placement is one sequential curve
	// walk, and FD keeps its own FDConfig.Workers knob.
	//
	// Deprecated: the field stays only while the benchmark harness sets it
	// (ROADMAP item 8(c)); leave it unset.
	Workers int
	// Defects marks dead cores and failed links of the physical mesh. The
	// initial placement lays the curve sequence over healthy cores only,
	// and fine-tuning never swaps onto a dead core. Nil means a pristine
	// mesh.
	Defects *hw.DefectMap
	// Constraints reserves hot-spare rows for placement and fine-tuning:
	// only SpareRows is read. Per-core capacity was settled by the
	// partitioner, which sized every cluster for one core.
	Constraints hw.Constraints
	// Obs receives phase spans ("placement", "finetune") and is forwarded
	// to FD unless its FDConfig already carries its own observer. Nil
	// disables telemetry; observe-only either way.
	Obs *obs.Observer
	// Cache, when non-nil, warm-starts the pipeline from previously stored
	// results: a hit skips placement and fine-tuning entirely, and
	// successful cold runs are stored for next time. Excluded from cache
	// keys itself (like Obs and Workers, it never changes the output);
	// configs with a wall-clock Budget bypass it entirely. See
	// internal/cache for the on-disk implementation.
	Cache ResultCache
}

// Default returns the paper's proposed approach (HSC + FD with u_c).
func Default() Config {
	return Config{Curve: curve.Hilbert{}, FD: &FDConfig{Potential: L2Sq{}}}
}

// Result is the output of Map.
type Result struct {
	Placement *place.Placement
	// FD holds fine-tuning statistics (zero value when FD was disabled).
	FD FDStats
	// Snapshot is the latest fine-tuning snapshot when fine-tuning failed
	// mid-run (always set on cancellation, even without a user Checkpoint
	// config, so the caller holds a resumable state alongside ErrCanceled);
	// nil on success.
	Snapshot *Snapshot
	// Elapsed is the total mapping wall-clock time (initial placement plus
	// fine-tuning), the "algorithm execution time" metric of §5.1.4.
	Elapsed time.Duration
}

// Map runs the configured pipeline on the PCN and mesh.
func Map(p *pcn.PCN, mesh hw.Mesh, cfg Config) (Result, error) {
	return MapContext(context.Background(), p, mesh, cfg)
}

// MapContext is Map with cooperative cancellation: long-running phases check
// ctx periodically and return an error wrapping ErrCanceled when it is done.
func MapContext(ctx context.Context, p *pcn.PCN, mesh hw.Mesh, cfg Config) (Result, error) {
	start := time.Now()
	if err := ctx.Err(); err != nil {
		return Result{}, fmt.Errorf("mapping: %v: %w", err, ErrCanceled)
	}
	if fd := cfg.FD; fd != nil {
		// One fault model per pipeline: the FD phase may restate the
		// pipeline's, never name another the curve walk did not avoid.
		if fd.Defects != nil && fd.Defects != cfg.Defects {
			return Result{}, fmt.Errorf("mapping: %w: FD phase has its own defect map; set Config.Defects alone", ErrBadConfig)
		}
		if fd.Constraints != (hw.Constraints{}) && fd.Constraints != cfg.Constraints {
			return Result{}, fmt.Errorf("mapping: %w: FD phase constraints %+v differ from the pipeline's %+v", ErrBadConfig, fd.Constraints, cfg.Constraints)
		}
	}
	useCache := cfg.cacheable()
	if useCache {
		if res, ok := cfg.Cache.LoadResult(p, mesh, &cfg); ok {
			res.Elapsed = time.Since(start)
			return res, nil
		}
	}
	placeSp := cfg.Obs.Span("placement", obs.KV{K: "clusters", V: float64(p.NumClusters)})
	pl, err := InitialPlacementDefects(p, mesh, cfg.Curve, cfg.Defects, cfg.Constraints)
	placeSp.End()
	if err != nil {
		return Result{}, fmt.Errorf("mapping: initial placement: %w", err)
	}
	res := Result{Placement: pl}
	if cfg.FD != nil {
		fdcfg := *cfg.FD
		fdcfg.Defects, fdcfg.Constraints = cfg.Defects, cfg.Constraints
		if err := fdcfg.withDefaults().Validate(); err != nil {
			return res, fmt.Errorf("mapping: finetune: %w", err)
		}
		// Tee the checkpoints so the latest snapshot rides along with any
		// error; the wrapper alone (user Interval 0, nil user Fn) still
		// captures the cancellation snapshot every canceled run emits.
		user := fdcfg.Checkpoint
		wrapped := CheckpointConfig{Fn: func(s *Snapshot) error {
			res.Snapshot = s
			if user != nil && user.Fn != nil {
				return user.Fn(s)
			}
			return nil
		}}
		if user != nil {
			wrapped.Interval = user.Interval
		}
		fdcfg.Checkpoint = &wrapped
		if fdcfg.Obs == nil {
			fdcfg.Obs = cfg.Obs
		}
		// Build FD's adjacency (lazy, memoized on p) in its own span so
		// the finetune span holds FD alone.
		trSp := cfg.Obs.Span("pcn.transpose")
		p.Symmetric()
		trSp.End()
		fdSp := cfg.Obs.Span("finetune")
		res.FD, err = FinetuneContext(ctx, p, pl, fdcfg)
		if err != nil {
			fdSp.End()
			res.Elapsed = time.Since(start)
			return res, fmt.Errorf("mapping: finetune: %w", err)
		}
		fdSp.End(
			obs.KV{K: "iterations", V: float64(res.FD.Iterations)},
			obs.KV{K: "swaps", V: float64(res.FD.Swaps)},
			obs.KV{K: "final_energy", V: res.FD.FinalEnergy})
	}
	res.Snapshot = nil
	res.Elapsed = time.Since(start)
	if useCache {
		cfg.Cache.StoreResult(p, mesh, &cfg, &res)
	}
	return res, nil
}
