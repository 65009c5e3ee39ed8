package metrics

import (
	"snnmap/internal/geom"
	"snnmap/internal/hw"
	"snnmap/internal/par"
	"snnmap/internal/pcn"
	"snnmap/internal/place"
)

// evaluateWalk is Evaluate as it was before repeated dense rows were summed
// per row, kept verbatim but for the telemetry, which it replaces by
// returning the box and swept cell counts: every out-edge of the PCN's own
// CSR is walked one at a time. It is the oracle of the per-row walk.
func evaluateWalk(p *pcn.PCN, pl *place.Placement, cost hw.CostModel, opts Options) (s Summary, bboxWork, swept int64) {
	opts = opts.withDefaults()
	mesh := pl.Mesh

	stride := sampleStride(p, opts)
	needSampled := stride > 1 &&
		(opts.Congestion == CongestionSampled || opts.Congestion == CongestionAuto)

	n := p.NumClusters
	pos := clusterCoords(pl)
	k := par.Chunks(n)
	partials := make([]evalPartial, k)
	par.Do(opts.Workers, k, func(ci int) {
		lo, hi := ci*n/k, (ci+1)*n/k
		var pt evalPartial
		skip := -1
		if needSampled {
			skip = sampleSkip(p.OutOff[lo], stride)
		}
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
				pt.bboxWork += int64(dx+1) * int64(dy+1)
				if skip == 0 {
					pt.sampledWeight += w
					skip = stride
				}
				skip--
			}
		}
		partials[ci] = pt
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
		sampledWeight += pt.sampledWeight
		bboxWork += pt.bboxWork
	}
	if totalWeight > 0 {
		s.AvgLatency = weightedLatency / totalWeight
	}
	s.AvgCongestion /= float64(mesh.Cores())

	mode := opts.Congestion
	if mode == CongestionAuto {
		if bboxWork <= opts.ExactWorkLimit {
			mode = CongestionExact
		} else {
			mode = CongestionSampled
		}
	}
	if mode == CongestionExact || mode == CongestionSampled {
		if mode == CongestionExact {
			stride = 1
		}
		grid, counts := congestionGrid(p, pos, mesh, stride, opts.Workers)
		swept = counts.swept
		if stride > 1 && sampledWeight > 0 {
			scale := totalWeight / sampledWeight
			for i := range grid {
				grid[i] *= scale
			}
		}
		s.MaxCongestion = maxOf(grid)
	}
	return s, bboxWork, swept
}
