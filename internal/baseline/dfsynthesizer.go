package baseline

import (
	"math/rand"
	"time"

	"snnmap/internal/hw"
	"snnmap/internal/pcn"
	"snnmap/internal/place"
)

// DFSynthesizer implements the greedy mapping search of Song et al. (TECS
// 2022) as described in §2.2: initialize by randomly allocating clusters to
// cores, then search for a better solution by swapping cluster positions
// iteratively, evaluating the cost metric after every move and retaining
// the new mapping only if the metric improves.
//
// The cost metric is M_ec (Eq. 9), each swap priced by MoveEnergyDelta,
// the ΔM_ec the field repairs decide by too. The effort is 40 swap attempts
// per cluster; the budget early-stops long runs, as in the paper's protocol.
func DFSynthesizer(p *pcn.PCN, mesh hw.Mesh, opts Options) (*place.Placement, Stats, error) {
	opts = opts.withDefaults()
	start := time.Now()
	rng := rand.New(rand.NewSource(opts.Seed))
	pl, err := place.Random(p.NumClusters, mesh, rng)
	if err != nil {
		return nil, Stats{}, err
	}
	var stats Stats

	const perCluster = 40
	attempts := perCluster * int64(p.NumClusters)

	var deadline time.Time
	if opts.Budget > 0 {
		deadline = start.Add(opts.Budget)
	}

	cores := int32(mesh.Cores())
	for i := int64(0); i < attempts; i++ {
		if !deadline.IsZero() && i%1024 == 0 && time.Now().After(deadline) {
			stats.EarlyStopped = true
			break
		}
		// Swap a random occupied core with any other core (occupied or
		// free); moving into free space is part of the search.
		a := pl.PosOf[rng.Intn(p.NumClusters)]
		b := int32(rng.Intn(int(cores)))
		if a == b {
			continue
		}
		stats.Evaluations++
		if swapEnergyDelta(p, pl, opts.Cost, a, b) < 0 {
			pl.SwapCores(a, b)
			stats.Moves++
		}
	}
	stats.Elapsed = time.Since(start)
	return pl, stats, nil
}
