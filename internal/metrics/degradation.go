package metrics

import (
	"fmt"

	"snnmap/internal/hw"
	"snnmap/internal/pcn"
	"snnmap/internal/place"
)

// Degradation is the structural side of how a mapping degrades on a
// defective mesh: what the defect map takes away and how much of the
// surviving capacity the placement uses. The NoC's delivery figures and a
// repair's migration cost are reported by noc.Result and
// mapping.RemapStats.
type Degradation struct {
	// TotalCores, DeadCores and FailedLinks describe the defect map itself.
	TotalCores, DeadCores, FailedLinks int
	// HealthyCores is TotalCores − DeadCores.
	HealthyCores int
	// HealthyUtilization is clusters per healthy core — how much of the
	// surviving capacity the placement consumes.
	HealthyUtilization float64
}

// EvaluateDegradation computes the structural degradation metrics of a
// placement on a defective mesh. A nil defect map yields the pristine-mesh
// figures.
func EvaluateDegradation(p *pcn.PCN, pl *place.Placement, d *hw.DefectMap) Degradation {
	g := Degradation{
		TotalCores:  pl.Mesh.Cores(),
		DeadCores:   d.NumDead(),
		FailedLinks: d.NumFailedLinks(),
	}
	g.HealthyCores = g.TotalCores - g.DeadCores
	if g.HealthyCores > 0 {
		g.HealthyUtilization = float64(p.NumClusters) / float64(g.HealthyCores)
	}
	return g
}

// String implements fmt.Stringer with a compact fixed-order rendering.
func (g Degradation) String() string {
	return fmt.Sprintf("dead=%d/%d failedLinks=%d healthyUtil=%.3f",
		g.DeadCores, g.TotalCores, g.FailedLinks, g.HealthyUtilization)
}
