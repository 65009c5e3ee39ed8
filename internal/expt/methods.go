package expt

import (
	"fmt"
	"time"

	"snnmap/internal/baseline"
	"snnmap/internal/curve"
	"snnmap/internal/hw"
	"snnmap/internal/mapping"
	"snnmap/internal/obs"
	"snnmap/internal/pcn"
	"snnmap/internal/place"
)

// RunOptions are shared knobs for every method run.
type RunOptions struct {
	// Seed drives randomized methods.
	Seed int64
	// Budget caps each method's wall-clock time, mirroring the paper's
	// 100-hour early-stop protocol scaled to this machine. Zero = no cap.
	Budget time.Duration
	// Cost is the hardware cost model (zero value = Table 2 defaults).
	Cost hw.CostModel
	// Defects marks dead cores and failed links of the target mesh. Curve
	// and FD methods place around them; baseline methods do not support
	// defect maps and fail when one is set.
	Defects *hw.DefectMap
	// Constraints reserves hot-spare rows (mapping.Config.Constraints:
	// only SpareRows is read).
	Constraints hw.Constraints
	// Workers fans FD fine-tuning's build phases and metrics evaluation out
	// over up to this many goroutines (0 or 1 = sequential). Results are
	// bit-identical across worker counts for both, per mapping.FDConfig's
	// and metrics.Options' contracts.
	Workers int
	// Checkpoint, when non-nil, is passed to FD fine-tuning so method runs
	// snapshot their progress (mapping.FDConfig.Checkpoint). Methods
	// without an FD phase ignore it.
	Checkpoint *mapping.CheckpointConfig
	// Obs receives phase spans, hot-loop counters and throttled progress
	// from every stage a run touches (partitioning, FD fine-tuning, metric
	// evaluation, sweep progress). Nil disables telemetry. Observe-only:
	// results are bit-identical with or without an observer.
	Obs *obs.Observer
	// Cache warm-starts curve-addressable method runs from previously
	// stored artifacts (mapping.Config.Cache). Randomized initial
	// placements are not content-addressable and ignore it, and budgeted
	// runs bypass it; results are bit-identical with or without a cache.
	Cache mapping.ResultCache
}

func (o RunOptions) withDefaults() RunOptions {
	if o.Cost == (hw.CostModel{}) {
		o.Cost = hw.DefaultCostModel()
	}
	return o
}

// MethodStats reports a method run.
type MethodStats struct {
	Elapsed      time.Duration
	EarlyStopped bool
}

// Method is one mapping approach under evaluation.
type Method struct {
	// Name is the display name used in report rows.
	Name string
	// Run maps the PCN onto the mesh.
	Run func(p *pcn.PCN, mesh hw.Mesh, opts RunOptions) (*place.Placement, MethodStats, error)
}

// curveMethod routes through mapping.MapContext (FD disabled) so the
// cache, phase spans and defect handling live in one place.
func curveMethod(name string, c curve.Curve) Method {
	return Method{Name: name, Run: func(p *pcn.PCN, mesh hw.Mesh, opts RunOptions) (*place.Placement, MethodStats, error) {
		res, err := mapping.Map(p, mesh, mapping.Config{
			Curve:       c,
			Defects:     opts.Defects,
			Constraints: opts.Constraints,
			Obs:         opts.Obs,
			Cache:       opts.Cache,
		})
		if err != nil {
			return nil, MethodStats{}, err
		}
		return res.Placement, MethodStats{Elapsed: res.Elapsed}, nil
	}}
}

func fdMethod(name string, c curve.Curve, pot func(hw.CostModel) mapping.Potential) Method {
	return Method{Name: name, Run: func(p *pcn.PCN, mesh hw.Mesh, opts RunOptions) (*place.Placement, MethodStats, error) {
		opts = opts.withDefaults()
		fd := &mapping.FDConfig{
			Potential:  pot(opts.Cost),
			Budget:     opts.Budget,
			Workers:    opts.Workers,
			Checkpoint: opts.Checkpoint,
		}
		if c != nil {
			// Curve-based pipeline: route through MapContext so a cache can
			// serve the initial placement or the whole run.
			res, err := mapping.Map(p, mesh, mapping.Config{
				Curve:       c,
				FD:          fd,
				Defects:     opts.Defects,
				Constraints: opts.Constraints,
				Obs:         opts.Obs,
				Cache:       opts.Cache,
			})
			if err != nil {
				return nil, MethodStats{}, err
			}
			return res.Placement, MethodStats{Elapsed: res.Elapsed, EarlyStopped: !res.FD.Converged}, nil
		}
		// Randomized initial placement: not content-addressable, so the
		// cache never applies here.
		start := time.Now()
		sp := opts.Obs.Span("placement", obs.KV{K: "clusters", V: float64(p.NumClusters)})
		if opts.Defects.NumDead() > 0 {
			sp.End()
			return nil, MethodStats{}, fmt.Errorf("expt: method %s: random initial placement does not support defect maps", name)
		}
		pl, _, err := baseline.Random(p, mesh, baseline.Options{Seed: opts.Seed})
		sp.End()
		if err != nil {
			return nil, MethodStats{}, err
		}
		fd.Defects = opts.Defects
		fd.Constraints = opts.Constraints
		fd.Obs = opts.Obs
		ftSp := opts.Obs.Span("finetune")
		stats, err := mapping.Finetune(p, pl, *fd)
		if err != nil {
			ftSp.End()
			return nil, MethodStats{}, err
		}
		ftSp.End(
			obs.KV{K: "iterations", V: float64(stats.Iterations)},
			obs.KV{K: "swaps", V: float64(stats.Swaps)},
			obs.KV{K: "final_energy", V: stats.FinalEnergy})
		return pl, MethodStats{Elapsed: time.Since(start), EarlyStopped: !stats.Converged}, nil
	}}
}

func baselineMethod(name string, run func(*pcn.PCN, hw.Mesh, baseline.Options) (*place.Placement, baseline.Stats, error)) Method {
	return Method{Name: name, Run: func(p *pcn.PCN, mesh hw.Mesh, opts RunOptions) (*place.Placement, MethodStats, error) {
		opts = opts.withDefaults()
		if opts.Defects.NumDead() > 0 {
			return nil, MethodStats{}, fmt.Errorf("expt: method %s does not support defect maps; use a curve/FD method", name)
		}
		pl, stats, err := run(p, mesh, baseline.Options{Seed: opts.Seed, Budget: opts.Budget, Cost: opts.Cost})
		return pl, MethodStats{Elapsed: stats.Elapsed, EarlyStopped: stats.EarlyStopped}, err
	}}
}

// RandomMethod is the paper's normalization baseline.
func RandomMethod() Method { return baselineMethod("Random", baseline.Random) }

// Proposed is the paper's approach: HSC initial placement + FD with the
// u_c = x²+y² potential (method j of Figure 8).
func Proposed() Method {
	return fdMethod("Proposed", curve.Hilbert{}, func(hw.CostModel) mapping.Potential { return mapping.L2Sq{} })
}

// Figure8Methods returns the ten methods a)–j) of Figure 8 in order.
func Figure8Methods() []Method {
	l1 := func(hw.CostModel) mapping.Potential { return mapping.L1{} }
	l1sq := func(hw.CostModel) mapping.Potential { return mapping.L1Sq{} }
	l2sq := func(hw.CostModel) mapping.Potential { return mapping.L2Sq{} }
	return []Method{
		RandomMethod(),                                // a) baseline
		curveMethod("HSC", curve.Hilbert{}),           // b)
		curveMethod("ZigZag", curve.ZigZag{}),         // c)
		curveMethod("Circle", curve.Circle{}),         // d)
		fdMethod("FD(ua)", nil, l1),                   // e)
		fdMethod("HSC+FD(ua)", curve.Hilbert{}, l1),   // f)
		fdMethod("FD(ub)", nil, l1sq),                 // g)
		fdMethod("HSC+FD(ub)", curve.Hilbert{}, l1sq), // h)
		fdMethod("FD(uc)", nil, l2sq),                 // i)
		fdMethod("HSC+FD(uc)", curve.Hilbert{}, l2sq), // j) = Proposed
	}
}

// ComparisonMethods returns the §5.3 cross-method lineup: Random (baseline),
// TrueNorth, DFSynthesizer, PSO, and the proposed approach.
func ComparisonMethods() []Method {
	return []Method{
		RandomMethod(),
		baselineMethod("TrueNorth", baseline.TrueNorth),
		baselineMethod("DFSynthesizer", baseline.DFSynthesizer),
		baselineMethod("PSO", baseline.PSO),
		Proposed(),
	}
}

// MethodByName returns a method from any lineup.
func MethodByName(name string) (Method, error) {
	for _, m := range append(Figure8Methods(), ComparisonMethods()...) {
		if m.Name == name {
			return m, nil
		}
	}
	return Method{}, fmt.Errorf("expt: unknown method %q", name)
}
