package baseline

import (
	"math"
	"math/rand"
	"time"

	"snnmap/internal/hw"
	"snnmap/internal/pcn"
	"snnmap/internal/place"
)

// annealSchedule is a geometric cooling schedule. SimulatedAnnealing runs a
// fixed one; only this package's tests run others.
type annealSchedule struct {
	// coolingRate is the per-epoch geometric temperature decay.
	coolingRate float64
	// movesPerEpoch is the number of proposed swaps per temperature step.
	movesPerEpoch int
	// finalTemperatureRatio stops the schedule once T falls below this
	// fraction of the initial temperature.
	finalTemperatureRatio float64
}

// initialAcceptance is the target probability of accepting an average
// uphill move at the starting temperature.
const initialAcceptance = 0.5

// SimulatedAnnealing is the classic placement metaheuristic (the workhorse
// of VLSI placers and a natural upper-effort comparator the paper's related
// work builds on): random start, Metropolis-accepted core swaps under a
// geometric cooling schedule, with the interconnect energy M_ec (Eq. 9) as
// the objective. Deterministic per seed; budget-capped like every other
// baseline.
func SimulatedAnnealing(p *pcn.PCN, mesh hw.Mesh, opts Options) (*place.Placement, Stats, error) {
	return annealWith(p, mesh, opts, annealSchedule{coolingRate: 0.95, movesPerEpoch: 8 * p.NumClusters, finalTemperatureRatio: 1e-4})
}

// annealWith is SimulatedAnnealing with an explicit schedule.
func annealWith(p *pcn.PCN, mesh hw.Mesh, opts Options, cfg annealSchedule) (*place.Placement, Stats, error) {
	opts = opts.withDefaults()
	start := time.Now()
	rng := rand.New(rand.NewSource(opts.Seed))
	pl, err := place.Random(p.NumClusters, mesh, rng)
	if err != nil {
		return nil, Stats{}, err
	}
	var stats Stats

	// Calibrate the initial temperature from the observed uphill move
	// magnitude so that InitialAcceptance of them are accepted.
	var uphill float64
	var uphillN int
	for i := 0; i < 64; i++ {
		a := pl.PosOf[rng.Intn(p.NumClusters)]
		b := int32(rng.Intn(mesh.Cores()))
		if a == b {
			continue
		}
		if d := swapEnergyDelta(p, pl, opts.Cost, a, b); d > 0 {
			uphill += d
			uphillN++
		}
	}
	temperature := 1.0
	if uphillN > 0 {
		temperature = -(uphill / float64(uphillN)) / math.Log(initialAcceptance)
	}
	floor := temperature * cfg.finalTemperatureRatio

	best := pl.Clone()
	bestEnergy := placementEnergy(p, pl, opts.Cost)
	current := bestEnergy
	stats.Evaluations++

	var deadline time.Time
	if opts.Budget > 0 {
		deadline = start.Add(opts.Budget)
	}

	for temperature > floor {
		for move := 0; move < cfg.movesPerEpoch; move++ {
			if !deadline.IsZero() && move%1024 == 0 && time.Now().After(deadline) {
				stats.EarlyStopped = true
				stats.Elapsed = time.Since(start)
				return best, stats, nil
			}
			a := pl.PosOf[rng.Intn(p.NumClusters)]
			b := int32(rng.Intn(mesh.Cores()))
			if a == b {
				continue
			}
			delta := swapEnergyDelta(p, pl, opts.Cost, a, b)
			stats.Evaluations++
			if delta <= 0 || rng.Float64() < math.Exp(-delta/temperature) {
				pl.SwapCores(a, b)
				current += delta
				stats.Moves++
				if current < bestEnergy {
					bestEnergy = current
					best = pl.Clone()
				}
			}
		}
		temperature *= cfg.coolingRate
	}
	stats.Elapsed = time.Since(start)
	return best, stats, nil
}
