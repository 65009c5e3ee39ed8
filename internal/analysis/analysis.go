// Package analysis implements the statistical study of §4.3 (Figure 6): the
// curve cost measure of an SNN connection image laid along a space-filling
// curve, and the probability-cloud ensemble that compares curves on
// arbitrary unknown SNNs.
package analysis

import (
	"fmt"
	"math/rand"

	"snnmap/internal/curve"
	"snnmap/internal/geom"
	"snnmap/internal/snn"
)

// outRows is a weighted digraph read one out-row at a time; *snn.Graph and
// *pcn.PCN both satisfy it.
type outRows interface {
	OutEdges(v int) ([]int32, []float64)
}

// CurveCost is the Figure 6.d cost: lay vertex i of g (a neuron of an
// snn.Graph, or a cluster of a pcn.PCN) at the curve's i-th mesh position
// and sum w·distance over every edge — equivalently, mask the curve's
// distance heatmap with the connection image and sum the covered values.
// g has the given number of vertices, which must fit the n×m mesh.
func CurveCost(c curve.Curve, g outRows, vertices, n, m int) (float64, error) {
	if vertices > n*m {
		return 0, fmt.Errorf("analysis: %d vertices exceed %d×%d mesh", vertices, n, m)
	}
	pts := c.Points(n, m)
	var cost float64
	for i := 0; i < vertices; i++ {
		tos, ws := g.OutEdges(i)
		for k, to := range tos {
			cost += ws[k] * float64(geom.Manhattan(pts[i], pts[to]))
		}
	}
	return cost, nil
}

// CloudConfig parameterizes the probability cloud of Figure 6.e: an
// ensemble of random SNN connection images with the locality structure of
// real applications.
type CloudConfig struct {
	// MeshN and MeshM give the mesh (8×8 in the figure).
	MeshN, MeshM int
	// Samples is the ensemble size (default 100).
	Samples int
	// AvgDegree, LocalityBand and LongRangeFrac parameterize each random
	// SNN (see snn.RandomConfig); zero values mean degree 8, band 0.15,
	// long-range 0.05.
	AvgDegree     float64
	LocalityBand  float64
	LongRangeFrac float64
}

func (c CloudConfig) withDefaults() CloudConfig {
	if c.MeshN == 0 {
		c.MeshN = 8
	}
	if c.MeshM == 0 {
		c.MeshM = 8
	}
	if c.Samples <= 0 {
		c.Samples = 100
	}
	if c.AvgDegree <= 0 {
		c.AvgDegree = 8
	}
	if c.LocalityBand <= 0 {
		c.LocalityBand = 0.15
	}
	if c.LongRangeFrac <= 0 {
		c.LongRangeFrac = 0.05
	}
	return c
}

// CloudCost averages the Figure 6.d cost of each curve over the random
// ensemble and returns the per-curve means, keyed by curve name.
func CloudCost(cfg CloudConfig, curves []curve.Curve, rng *rand.Rand) (map[string]float64, error) {
	cfg = cfg.withDefaults()
	sums := make(map[string]float64, len(curves))
	for s := 0; s < cfg.Samples; s++ {
		g, err := snn.RandomGraph(snn.RandomConfig{
			Neurons:       cfg.MeshN * cfg.MeshM,
			AvgDegree:     cfg.AvgDegree,
			LocalityBand:  cfg.LocalityBand,
			LongRangeFrac: cfg.LongRangeFrac,
		}, rng)
		if err != nil {
			return nil, err
		}
		for _, c := range curves {
			cost, err := CurveCost(c, g, g.NumNeurons, cfg.MeshN, cfg.MeshM)
			if err != nil {
				return nil, err
			}
			sums[c.Name()] += cost
		}
	}
	for name := range sums {
		sums[name] /= float64(cfg.Samples)
	}
	return sums, nil
}

// Normalize divides every entry by the reference entry (Hilbert in the
// paper's Figure 6.e, which reports Hilbert=1.0, ZigZag=2.63, Circle=6.33).
func Normalize(costs map[string]float64, reference string) (map[string]float64, error) {
	ref, ok := costs[reference]
	if !ok || ref == 0 {
		return nil, fmt.Errorf("analysis: reference curve %q missing or zero", reference)
	}
	out := make(map[string]float64, len(costs))
	for name, v := range costs {
		out[name] = v / ref
	}
	return out, nil
}
