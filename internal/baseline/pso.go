package baseline

import (
	"math/rand"
	"time"

	"snnmap/internal/hw"
	"snnmap/internal/mapping"
	"snnmap/internal/pcn"
	"snnmap/internal/place"
)

// PSO implements the binarized Particle Swarm Optimization used by PSOPART,
// SpiNeMap, PyCARL and Song et al. (§2.2, §5.1.3): a swarm of candidate
// placements evolves by pulling each particle toward its personal best and
// the global best. Because a core can hold at most one cluster, "moving a
// cluster toward a best position" is realized as a swap with the occupant of
// the target core (the position binarization of SpiNeMap). Fitness is the
// interconnect energy M_ec (Eq. 9).
//
// The effort follows the scale of the SOTA configuration the paper compares
// against: 20 particles, 50 generations; the wall-clock budget early-stops
// long runs.
func PSO(p *pcn.PCN, mesh hw.Mesh, opts Options) (*place.Placement, Stats, error) {
	opts = opts.withDefaults()
	start := time.Now()
	rng := rand.New(rand.NewSource(opts.Seed))
	var stats Stats

	// Swarm size, generations, and the PSO coefficients: inertia (random
	// exploration), cognitive pull toward the personal best, social pull
	// toward the global best.
	const (
		particles   = 20
		generations = 50
		inertia     = 0.05
		cognitive   = 0.30
		social      = 0.30
	)

	type particle struct {
		pl      *place.Placement
		fitness float64
		best    *place.Placement
		bestFit float64
	}

	swarm := make([]particle, particles)
	var gbest *place.Placement
	gbestFit := 0.0
	for i := range swarm {
		pl, err := place.Random(p.NumClusters, mesh, rng)
		if err != nil {
			return nil, Stats{}, err
		}
		fit := mapping.InterconnectEnergy(p, pl, opts.Cost)
		stats.Evaluations++
		swarm[i] = particle{pl: pl, fitness: fit, best: pl.Clone(), bestFit: fit}
		if gbest == nil || fit < gbestFit {
			gbest = pl.Clone()
			gbestFit = fit
		}
	}

	var deadline time.Time
	if opts.Budget > 0 {
		deadline = start.Add(opts.Budget)
	}

	// moveToward swaps cluster c's core with the core that ref assigns to
	// c, making the particle agree with ref on c.
	moveToward := func(pl, ref *place.Placement, c int) {
		target := ref.PosOf[c]
		if pl.PosOf[c] != target {
			pl.SwapCores(pl.PosOf[c], target)
		}
	}

	for gen := 0; gen < generations; gen++ {
		if !deadline.IsZero() && time.Now().After(deadline) {
			stats.EarlyStopped = true
			break
		}
		for i := range swarm {
			pt := &swarm[i]
			for c := 0; c < p.NumClusters; c++ {
				switch r := rng.Float64(); {
				case r < inertia:
					// Velocity/inertia term: a random swap.
					other := int32(rng.Intn(mesh.Cores()))
					pl := pt.pl
					if pl.PosOf[c] != other {
						pl.SwapCores(pl.PosOf[c], other)
					}
				case r < inertia+cognitive:
					moveToward(pt.pl, pt.best, c)
				case r < inertia+cognitive+social:
					moveToward(pt.pl, gbest, c)
				}
			}
			pt.fitness = mapping.InterconnectEnergy(p, pt.pl, opts.Cost)
			stats.Evaluations++
			if pt.fitness < pt.bestFit {
				pt.best = pt.pl.Clone()
				pt.bestFit = pt.fitness
				stats.Moves++
			}
			if pt.fitness < gbestFit {
				gbest = pt.pl.Clone()
				gbestFit = pt.fitness
			}
		}
	}
	stats.Elapsed = time.Since(start)
	return gbest, stats, nil
}
