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
	// Defects marks dead cores and failed links of the target mesh. Random,
	// curve and FD methods place around them; TrueNorth, DFSynthesizer and
	// PSO fail with ErrBadConfig when the map has a dead core.
	Defects *hw.DefectMap
	// Constraints reserves hot-spare rows (mapping.Config.Constraints:
	// only SpareRows is read). Random, curve and FD methods leave them
	// empty; TrueNorth, DFSynthesizer and PSO fail with ErrBadConfig when
	// SpareRows is positive.
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
	// Cache warm-starts Random, curve and FD method runs from previously
	// stored artifacts (mapping.Config.Cache); the random visit order's name
	// carries the seed, so each seed has its own entry. Budgeted FD runs
	// bypass it, and TrueNorth, DFSynthesizer and PSO ignore it; results are
	// bit-identical with or without a cache.
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

// mapMethod is one Figure 8 pipeline run through mapping.Map, so the cache,
// phase spans and defect and spare-row handling live in one place: an
// initial placement along start(seed), the visit order for the run's seed,
// then FD fine-tuning with pot when pot is non-nil.
func mapMethod(name string, start func(seed int64) curve.Curve, pot mapping.Potential) Method {
	return Method{Name: name, Run: func(p *pcn.PCN, mesh hw.Mesh, opts RunOptions) (*place.Placement, MethodStats, error) {
		cfg := mapping.Config{
			Curve:       start(opts.Seed),
			Defects:     opts.Defects,
			Constraints: opts.Constraints,
			Obs:         opts.Obs,
			Cache:       opts.Cache,
		}
		if pot != nil {
			cfg.FD = &mapping.FDConfig{Potential: pot, Budget: opts.Budget, Workers: opts.Workers, Checkpoint: opts.Checkpoint}
		}
		res, err := mapping.Map(p, mesh, cfg)
		if err != nil {
			return nil, MethodStats{}, err
		}
		return res.Placement, MethodStats{Elapsed: res.Elapsed, EarlyStopped: pot != nil && !res.FD.Converged}, nil
	}}
}

// The two kinds of initial placement in Figure 8: a seeded random visit order
// (a, and the start of e, g, i) and a fixed curve (b–d, and the HSC starts).
func randomStart(seed int64) curve.Curve { return curve.Random{Seed: seed} }

func fixed(c curve.Curve) func(int64) curve.Curve { return func(int64) curve.Curve { return c } }

// baselineMethod runs one of the §5.3 comparison searches, which place on a
// pristine mesh only: a defect map with dead cores or reserved spare rows
// fails with ErrBadConfig instead of being ignored.
func baselineMethod(name string, run func(*pcn.PCN, hw.Mesh, baseline.Options) (*place.Placement, baseline.Stats, error)) Method {
	return Method{Name: name, Run: func(p *pcn.PCN, mesh hw.Mesh, opts RunOptions) (*place.Placement, MethodStats, error) {
		opts = opts.withDefaults()
		if opts.Defects.NumDead() > 0 {
			return nil, MethodStats{}, fmt.Errorf("expt: method %s does not support defect maps; use a curve/FD method: %w", name, mapping.ErrBadConfig)
		}
		if opts.Constraints.SpareRows > 0 {
			return nil, MethodStats{}, fmt.Errorf("expt: method %s does not support spare rows; use a curve/FD method: %w", name, mapping.ErrBadConfig)
		}
		pl, stats, err := run(p, mesh, baseline.Options{Seed: opts.Seed, Budget: opts.Budget, Cost: opts.Cost})
		return pl, MethodStats{Elapsed: stats.Elapsed, EarlyStopped: stats.EarlyStopped}, err
	}}
}

// RandomMethod is the paper's normalization baseline: the PCN laid along a
// seeded random visit order.
func RandomMethod() Method { return mapMethod("Random", randomStart, nil) }

// Proposed is the paper's approach: HSC initial placement + FD with the
// u_c = x²+y² potential (method j of Figure 8).
func Proposed() Method { return mapMethod("Proposed", fixed(curve.Hilbert{}), mapping.L2Sq{}) }

// Figure8Methods returns the ten methods a)–j) of Figure 8 in order.
func Figure8Methods() []Method {
	hsc := fixed(curve.Hilbert{})
	return []Method{
		RandomMethod(),                                   // a) baseline
		mapMethod("HSC", hsc, nil),                       // b)
		mapMethod("ZigZag", fixed(curve.ZigZag{}), nil),  // c)
		mapMethod("Circle", fixed(curve.Circle{}), nil),  // d)
		mapMethod("FD(ua)", randomStart, mapping.L1{}),   // e)
		mapMethod("HSC+FD(ua)", hsc, mapping.L1{}),       // f)
		mapMethod("FD(ub)", randomStart, mapping.L1Sq{}), // g)
		mapMethod("HSC+FD(ub)", hsc, mapping.L1Sq{}),     // h)
		mapMethod("FD(uc)", randomStart, mapping.L2Sq{}), // i)
		mapMethod("HSC+FD(uc)", hsc, mapping.L2Sq{}),     // j) = Proposed
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
