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

	"snnmap/internal/geom"
	"snnmap/internal/hw"
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
// contents of cores a and b (either may be empty). Negative is better. Any
// mutual edge between the two swapped clusters keeps its length and cancels.
func swapEnergyDelta(p *pcn.PCN, pl *place.Placement, cost hw.CostModel, a, b int32) float64 {
	sym := p.Symmetric()
	var buf pcn.MergeBuf
	ca, cb := pl.ClusterAt[a], pl.ClusterAt[b]
	pa, pb := pl.Mesh.Coord(int(a)), pl.Mesh.Coord(int(b))
	var delta float64
	walk := func(tos []int32, ws []float64, other int32, from, to geom.Point) {
		m := pcn.WeightMask(tos, ws)
		for k, t := range tos {
			if t == other {
				continue
			}
			pk := pl.Of(int(t))
			delta += ws[k&m] * (cost.SpikeEnergy(geom.Manhattan(to, pk)) -
				cost.SpikeEnergy(geom.Manhattan(from, pk)))
		}
	}
	moveCost := func(c, other int32, from, to geom.Point) {
		// The two runs hold c's neighbors once each, ascending across both.
		to1, w1, to2, w2 := sym.Neighbors(int(c), &buf)
		walk(to1, w1, other, from, to)
		walk(to2, w2, other, from, to)
	}
	if ca != place.None {
		moveCost(ca, cb, pa, pb)
	}
	if cb != place.None {
		moveCost(cb, ca, pb, pa)
	}
	return delta
}
