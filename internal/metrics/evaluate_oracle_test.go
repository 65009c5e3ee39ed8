package metrics

import (
	"snnmap/internal/geom"
	"snnmap/internal/hw"
	"snnmap/internal/par"
	"snnmap/internal/pcn"
	"snnmap/internal/place"
)

// evaluateWalk is Evaluate as it was before repeated dense rows were summed
// per row, but for the telemetry, which it replaces by returning cell counts:
// Σ (dx+1)(dy+1) over every edge, the cells the exact grid sweeps and those
// the grid that ran swept (both 0 with the grid skipped). Every out-edge of
// the PCN's own CSR is walked one at a time. It is the oracle of the per-row
// walk. It takes the congestion rule from its definition: it runs the exact
// grid, and when that swept more than the limit, the sampled one. It sums the
// sampled weight itself, in the walk's chunks, from the definition (global
// CSR index divisible by the stride) rather than reading it from the grid.
func evaluateWalk(p *pcn.PCN, pl *place.Placement, cost hw.CostModel, opts Options) (s Summary, box, exact, swept int64) {
	mesh := pl.Mesh
	lim := opts.limits.withDefaults()
	stride := sampleStride(p, lim.sampleEdges)

	n := p.NumClusters
	pos := clusterCoords(pl)
	k := par.Chunks(n)
	partials := make([]evalPartial, k)
	sampled := make([]float64, k)
	boxes := make([]int64, k)
	par.Do(opts.Workers, k, func(ci int) {
		lo, hi := ci*n/k, (ci+1)*n/k
		var pt evalPartial
		var ps float64
		var pb int64
		for c := lo; c < hi; c++ {
			src := pos[c]
			tos, ws := p.OutEdges(c)
			for kk, to := range tos {
				dst := pos[to]
				dx, dy := geom.Abs(int(src.x-dst.x)), geom.Abs(int(src.y-dst.y))
				d := dx + dy
				w := ws[kk]
				pt.energy += w * cost.SpikeEnergy(d)
				lat := cost.SpikeLatency(d)
				pt.weightedLatency += w * lat
				if lat > pt.maxLatency {
					pt.maxLatency = lat
				}
				pt.totalWeight += w
				pt.avgCongestion += w * float64(d+1)
				pb += int64(dx+1) * int64(dy+1)
				if (p.OutOff[c]+int64(kk))%int64(stride) == 0 {
					ps += w
				}
			}
		}
		partials[ci], sampled[ci], boxes[ci] = pt, ps, pb
	})
	var totalWeight, weightedLatency, sampledWeight float64
	for ci := range partials {
		pt := &partials[ci]
		s.Energy += pt.energy
		weightedLatency += pt.weightedLatency
		if pt.maxLatency > s.MaxLatency {
			s.MaxLatency = pt.maxLatency
		}
		totalWeight += pt.totalWeight
		s.AvgCongestion += pt.avgCongestion
		sampledWeight += sampled[ci]
		box += boxes[ci]
	}
	if totalWeight > 0 {
		s.AvgLatency = weightedLatency / totalWeight
	}
	s.AvgCongestion /= float64(mesh.Cores())

	if opts.Congestion == CongestionAuto {
		grid, counts := congestionGrid(p, pos, mesh, 1, opts.Workers, true)
		exact = counts.swept
		if exact > lim.exactCells {
			grid, counts = congestionGrid(p, pos, mesh, stride, opts.Workers, true)
		} else {
			stride = 1
		}
		swept = counts.swept
		if stride > 1 && sampledWeight > 0 {
			scale := totalWeight / sampledWeight
			for i := range grid {
				grid[i] *= scale
			}
		}
		s.MaxCongestion = maxOf(grid)
	}
	return s, box, exact, swept
}
