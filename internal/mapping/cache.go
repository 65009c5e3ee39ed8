package mapping

import (
	"snnmap/internal/hw"
	"snnmap/internal/pcn"
)

// ResultCache is the warm-start hook MapContext consults before running
// the expensive pipeline stages. internal/cache provides the on-disk
// content-addressed implementation; the interface lives here (at the
// bottom of the dependency between the two packages) so mapping never
// imports the store.
//
// Implementations must be loss-free: a LoadResult hit must reproduce the
// exact bytes a cold MapContext run with the same inputs would produce
// (placement and FD statistics bit-identical; only Result.Elapsed, the
// caller's wall clock, differs). Any internal failure — missing entry,
// I/O error, corruption — must surface as a miss, never an error.
type ResultCache interface {
	// LoadResult returns the finished pipeline output for these exact
	// inputs, if cached: the stored Placement and FD statistics (FD.Elapsed
	// is the cold run's wall clock, preserved verbatim).
	LoadResult(p *pcn.PCN, mesh hw.Mesh, cfg *Config) (Result, bool)
	// StoreResult records a successful cold run's output.
	StoreResult(p *pcn.PCN, mesh hw.Mesh, cfg *Config, res *Result)
}

// cacheable reports whether the pipeline output for this config is a
// deterministic function of (PCN, mesh, config): wall-clock budgets make
// the iteration count timing-dependent, so budgeted runs bypass the
// cache entirely (no lookup, no store).
func (c *Config) cacheable() bool {
	if c.Cache == nil {
		return false
	}
	return c.FD == nil || c.FD.Budget <= 0
}

// Resolved returns the config with documentation defaults filled in
// (Potential nil→L2Sq, Lambda 0→0.3), exactly as Finetune resolves them.
// Cache implementations hash the resolved form so a zero field and its
// explicit default produce the same key.
func (c FDConfig) Resolved() FDConfig {
	return c.withDefaults()
}
