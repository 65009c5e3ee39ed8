// Package baseline implements the comparison approaches of §5.1.3, built
// from scratch against the same PCN/placement substrate as the proposed
// method: the TrueNorth layer-by-layer heuristic (Sawada et al.),
// DFSynthesizer's iterative swap search (Song et al.), and the binarized
// Particle Swarm Optimization used by SpiNeMap/PyCARL/Song. The random
// baseline is no search: it is the mapping pipeline over a seeded random
// visit order (curve.Random).
//
// All methods accept a wall-clock budget mirroring the paper's 100-hour
// early-stop protocol (scaled to this machine), and report whether they were
// stopped early.
package baseline

import (
	"time"

	"snnmap/internal/hw"
	"snnmap/internal/mapping"
	"snnmap/internal/pcn"
	"snnmap/internal/place"
)

// Options configures a baseline run.
type Options struct {
	// Seed drives all randomized decisions; runs are deterministic per seed.
	Seed int64
	// Budget caps wall-clock time; zero means no cap. A method that hits
	// the cap returns its best placement so far with EarlyStopped set.
	Budget time.Duration
	// Cost is the energy model used by objective functions; zero value
	// means hw.DefaultCostModel().
	Cost hw.CostModel
}

func (o Options) withDefaults() Options {
	if o.Cost == (hw.CostModel{}) {
		o.Cost = hw.DefaultCostModel()
	}
	return o
}

// Stats reports what a baseline run did.
type Stats struct {
	// Elapsed is the algorithm execution time (§5.1.4).
	Elapsed time.Duration
	// EarlyStopped reports that the budget expired before convergence
	// (rendered "ES" in the paper's Figures 9-12).
	EarlyStopped bool
	// Evaluations counts objective evaluations (full or incremental).
	Evaluations int64
	// Moves counts accepted placement changes.
	Moves int64
}

// swapEnergyDelta returns the change of M_ec caused by exchanging the
// contents of cores a and b (either may be empty): MoveEnergyDelta of one
// move per occupied core. Negative is better.
func swapEnergyDelta(p *pcn.PCN, pl *place.Placement, cost hw.CostModel, a, b int32) float64 {
	moves := make([]mapping.Move, 0, 2)
	if ca := pl.ClusterAt[a]; ca != place.None {
		moves = append(moves, mapping.Move{C: int(ca), From: a, To: b})
	}
	if cb := pl.ClusterAt[b]; cb != place.None {
		moves = append(moves, mapping.Move{C: int(cb), From: b, To: a})
	}
	return mapping.MoveEnergyDelta(p, pl, cost, moves)
}
