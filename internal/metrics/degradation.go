package metrics

import (
	"fmt"

	"snnmap/internal/hw"
	"snnmap/internal/pcn"
	"snnmap/internal/place"
)

// Degradation quantifies how gracefully a mapping degrades on a defective
// mesh. EvaluateDegradation fills the structural fields from the placement
// and defect map; the simulation and remap fields are merged in by the
// caller from a noc run (WithSim) and a remap repair (WithRemap), since
// those live in packages above metrics in the import graph.
type Degradation struct {
	// TotalCores, DeadCores and FailedLinks describe the defect map itself.
	TotalCores, DeadCores, FailedLinks int
	// HealthyCores is TotalCores − DeadCores.
	HealthyCores int
	// HealthyUtilization is clusters per healthy core — how much of the
	// surviving capacity the placement consumes.
	HealthyUtilization float64
	// DeliveredFraction and DroppedSpikes summarize a NoC run on the
	// matching faulty mesh (DeliveredFraction is 1 when no run was merged).
	DeliveredFraction float64
	DroppedSpikes     int64
	// RemapMoved, RemapMovedFrac and RemapDeltaEnergy summarize an
	// incremental repair (zero when no repair was merged).
	RemapMoved       int
	RemapMovedFrac   float64
	RemapDeltaEnergy float64
}

// EvaluateDegradation computes the structural degradation metrics of a
// placement on a defective mesh. A nil defect map yields the pristine-mesh
// figures.
func EvaluateDegradation(p *pcn.PCN, pl *place.Placement, d *hw.DefectMap) Degradation {
	g := Degradation{
		TotalCores:        pl.Mesh.Cores(),
		DeadCores:         d.NumDead(),
		FailedLinks:       d.NumFailedLinks(),
		DeliveredFraction: 1,
	}
	g.HealthyCores = g.TotalCores - g.DeadCores
	if g.HealthyCores > 0 {
		g.HealthyUtilization = float64(p.NumClusters) / float64(g.HealthyCores)
	}
	return g
}

// WithSim merges a NoC run's delivery accounting (delivered and dropped
// counts out of injected) into the summary.
func (g Degradation) WithSim(injected, delivered, dropped int64) Degradation {
	g.DroppedSpikes = dropped
	if injected > 0 {
		g.DeliveredFraction = float64(delivered) / float64(injected)
	}
	return g
}

// WithRemap merges an incremental repair's migration cost into the summary.
func (g Degradation) WithRemap(moved int, movedFrac, deltaEnergy float64) Degradation {
	g.RemapMoved = moved
	g.RemapMovedFrac = movedFrac
	g.RemapDeltaEnergy = deltaEnergy
	return g
}

// String implements fmt.Stringer with a compact fixed-order rendering.
func (g Degradation) String() string {
	return fmt.Sprintf("dead=%d/%d failedLinks=%d healthyUtil=%.3f delivered=%.4f dropped=%d",
		g.DeadCores, g.TotalCores, g.FailedLinks, g.HealthyUtilization, g.DeliveredFraction, g.DroppedSpikes)
}
