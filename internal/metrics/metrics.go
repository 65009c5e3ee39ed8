// Package metrics implements the five placement-quality metrics of §3.3:
// energy consumption (Eq. 9), average and maximum spike latency (Eqs.
// 10–11), and average and maximum router congestion (Eqs. 12–14) with the
// expectation function of Algorithm 4.
package metrics

import (
	"fmt"
	"sync"

	"snnmap/internal/geom"
	"snnmap/internal/hw"
	"snnmap/internal/obs"
	"snnmap/internal/par"
	"snnmap/internal/pcn"
	"snnmap/internal/place"
)

// Summary holds the evaluated metrics for one placement.
type Summary struct {
	// Energy is M_ec (Eq. 9): total interconnect energy for all spikes.
	Energy float64
	// AvgLatency is M_al (Eq. 10): traffic-weighted mean spike latency.
	AvgLatency float64
	// MaxLatency is M_ml (Eq. 11): the worst single-connection latency.
	MaxLatency float64
	// AvgCongestion is M_ac (Eq. 12): mean router congestion.
	AvgCongestion float64
	// MaxCongestion is M_mc (Eq. 14): the hottest router's congestion.
	MaxCongestion float64
}

// String implements fmt.Stringer with a compact fixed-order rendering.
func (s Summary) String() string {
	return fmt.Sprintf("energy=%.4g avgLat=%.4g maxLat=%.4g avgCon=%.4g maxCon=%.4g",
		s.Energy, s.AvgLatency, s.MaxLatency, s.AvgCongestion, s.MaxCongestion)
}

// Normalize returns s with every metric divided by the corresponding metric
// of the baseline (the presentation used throughout Figures 8 and 10–12).
// Zero baseline entries normalize to zero.
func (s Summary) Normalize(baseline Summary) Summary {
	div := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	return Summary{
		Energy:        div(s.Energy, baseline.Energy),
		AvgLatency:    div(s.AvgLatency, baseline.AvgLatency),
		MaxLatency:    div(s.MaxLatency, baseline.MaxLatency),
		AvgCongestion: div(s.AvgCongestion, baseline.AvgCongestion),
		MaxCongestion: div(s.MaxCongestion, baseline.MaxCongestion),
	}
}

// CongestionMode selects whether Evaluate computes the congestion grid.
type CongestionMode int

const (
	// CongestionAuto, the zero value, computes Algorithm 4's grid exactly
	// when its sweeps cover at most 500 M cells, counted before it runs, and
	// above that from every ⌈E/200 000⌉-th edge in CSR order, rescaled by the
	// traffic total over the sampled total.
	CongestionAuto CongestionMode = iota
	// CongestionSkip leaves MaxCongestion zero (useful when only
	// energy/latency matter, e.g. inside optimization loops).
	CongestionSkip
)

// The congestion rule's two numbers. Package tests lower them through
// Options.limits.
const (
	// exactCells is the most cells the exact grid may sweep, counted by its
	// own chunk walk (exactChunk), for CongestionAuto to compute it.
	exactCells = 500_000_000
	// sampleEdges bounds how many edges a sampled grid accumulates.
	sampleEdges = 200_000
)

// limits are the congestion rule's numbers. A zero field takes its constant
// above.
type limits struct {
	exactCells  int64
	sampleEdges int
}

func (l limits) withDefaults() limits {
	if l.exactCells <= 0 {
		l.exactCells = exactCells
	}
	if l.sampleEdges <= 0 {
		l.sampleEdges = sampleEdges
	}
	return l
}

// Options tunes Evaluate.
type Options struct {
	// Congestion selects whether the congestion grid is computed.
	Congestion CongestionMode
	// Workers fans the edge walk out over up to this many goroutines
	// (same contract as mapping.FDConfig.Workers: 0 or 1 is sequential).
	// Results are bit-identical for every worker count: the walk is split
	// into a fixed number of chunks independent of Workers, per-chunk
	// partials are reduced in chunk order, and the sequential path uses
	// the same chunked reduction.
	Workers int
	// Obs receives a "metrics.evaluate" span; nil disables telemetry.
	// Observe-only: chunk boundaries, reduction order and every Summary
	// value are identical with or without an observer.
	Obs *obs.Observer

	// limits lowers the congestion rule's numbers so that a small net takes
	// the sampled grid. Only this package's tests set it.
	limits limits
}

// evalPartial is one chunk's share of Evaluate's edge-walk accumulators.
type evalPartial struct {
	energy, weightedLatency, maxLatency float64
	totalWeight, avgCongestion          float64
	// rows counts the clusters whose out-row was summed from a rowTable;
	// cells the exact grid's sweeps of the chunk's targets (exactChunk).
	rows, cells int64
}

// addRow adds the edges of the table's out-row, from the source at cell src
// with the row's broadcast weight w: what the edge walk adds, reassociated.
// SpikeEnergy and SpikeLatency are affine in d, so over the row's n edges
// Σ_k w·SpikeEnergy(d_k) = w·((Σd+n)·EN_r + Σd·EN_w), and likewise for
// latency; max latency is SpikeLatency(max d).
func (pt *evalPartial) addRow(t *rowTable, src cellXY, w float64, cost hw.CostModel) {
	n := len(t.ids)
	sumD, maxD := t.sums(src)
	sd, nn := float64(sumD), float64(n)
	pt.energy += w * ((sd+nn)*cost.RouterEnergy + sd*cost.WireEnergy)
	pt.weightedLatency += w * ((sd+nn)*cost.RouterLatency + sd*cost.WireLatency)
	if lat := cost.SpikeLatency(maxD); lat > pt.maxLatency {
		pt.maxLatency = lat
	}
	pt.totalWeight += w * nn
	pt.avgCongestion += w * (sd + nn)
	pt.rows++
}

// sampleStride returns the edge stride of a sampled grid that accumulates
// at most n of p's edges: every stride-th edge in global CSR order.
func sampleStride(p *pcn.PCN, n int) int {
	if e := int(p.NumEdges()); e > n {
		return (e + n - 1) / n
	}
	return 1
}

// sampleSkip returns how many edges a walk starting at global CSR index e
// passes over before the next one the stride samples.
func sampleSkip(e int64, stride int) int {
	return int((int64(stride) - e%int64(stride)) % int64(stride))
}

// Evaluate computes all five metrics of §3.3 for the placement.
//
// The edge walk reads each source's out-row from p.Symmetric() (built here if
// FD has not). A broadcast, consecutive out-row that the previous cluster
// read too — every cluster of a dense layer but the first — is summed per row
// from a rowTable: Energy, AvgLatency and AvgCongestion are the edge-by-edge
// sums reassociated (within 1e-12 relative), MaxLatency is exact. The walk is
// split into a fixed chunk count and, with opts.Workers > 1, fanned out over
// goroutines; partials are reduced in chunk order so the Summary is
// bit-identical for every worker count (including sequential).
func Evaluate(p *pcn.PCN, pl *place.Placement, cost hw.CostModel, opts Options) Summary {
	var s Summary
	mesh := pl.Mesh
	sp := opts.Obs.Span("metrics.evaluate",
		obs.KV{K: "clusters", V: float64(p.NumClusters)},
		obs.KV{K: "edges", V: float64(p.NumEdges())})

	n := p.NumClusters
	pos := clusterCoords(pl)
	sym := p.Symmetric()
	// The per-row sums take max latency at max d, which needs SpikeLatency
	// non-decreasing in d.
	perRow := cost.RouterLatency >= 0 && cost.WireLatency >= 0
	k := par.Chunks(n)
	partials := make([]evalPartial, k)
	par.Do(opts.Workers, k, func(ci int) {
		lo, hi := ci*n/k, (ci+1)*n/k
		// Partial sums stay in a local for the walk.
		var pt evalPartial
		var table rowTable
		for c := lo; c < hi; c++ {
			src := pos[c]
			tos, ws := sym.OutEdges(c)
			if perRow && table.use(tos, ws, pos) {
				pt.addRow(&table, src, ws[0], cost)
				continue
			}
			mask := pcn.WeightMask(tos, ws)
			for kk, to := range tos {
				dst := pos[to]
				d := geom.Abs(int(src.x-dst.x)) + geom.Abs(int(src.y-dst.y))
				w := ws[kk&mask]
				pt.energy += w * cost.SpikeEnergy(d)
				lat := cost.SpikeLatency(d)
				pt.weightedLatency += w * lat
				if lat > pt.maxLatency {
					pt.maxLatency = lat
				}
				pt.totalWeight += w
				// Every spike visits d+1 routers, so the edge contributes
				// w*(d+1) to the congestion grid total whether the grid is
				// exact or sampled; the average (Eq. 12) is exact and cheap.
				pt.avgCongestion += w * float64(d+1)
			}
		}
		if opts.Congestion == CongestionAuto {
			// The walk's chunks are the grid's, so this is the grid's walk.
			var count sweep
			pt.cells = count.exactChunk(sym, pos, mesh.Cols, lo, hi, false).swept
		}
		partials[ci] = pt
	})
	var totalWeight, weightedLatency float64
	var rows, cells int64
	for ci := range partials {
		pt := &partials[ci]
		s.Energy += pt.energy
		weightedLatency += pt.weightedLatency
		if pt.maxLatency > s.MaxLatency {
			s.MaxLatency = pt.maxLatency
		}
		totalWeight += pt.totalWeight
		s.AvgCongestion += pt.avgCongestion
		rows += pt.rows
		cells += pt.cells
	}
	if totalWeight > 0 {
		s.AvgLatency = weightedLatency / totalWeight
	}
	s.AvgCongestion /= float64(mesh.Cores())

	var counts gridCounts
	if opts.Congestion == CongestionAuto {
		lim := opts.limits.withDefaults()
		stride := 1
		if cells > lim.exactCells {
			stride = sampleStride(p, lim.sampleEdges)
		}
		var grid []float64
		grid, counts = congestionGrid(p, pos, mesh, stride, opts.Workers, true)
		if stride > 1 && counts.sampledWeight > 0 {
			// Rescale by the sampled traffic share so the grid estimates
			// the full-population congestion.
			scale := totalWeight / counts.sampledWeight
			for i := range grid {
				grid[i] *= scale
			}
		}
		s.MaxCongestion = maxOf(grid)
	}
	sp.End(
		obs.KV{K: "energy", V: s.Energy},
		obs.KV{K: "avg_latency", V: s.AvgLatency},
		obs.KV{K: "max_congestion", V: s.MaxCongestion},
		obs.KV{K: "exact_cells", V: float64(cells)},
		obs.KV{K: "swept_cells", V: float64(counts.swept)},
		obs.KV{K: "row_sums", V: float64(rows)},
		obs.KV{K: "run_targets", V: float64(counts.runTargets)},
		obs.KV{K: "run_tables", V: float64(counts.runTables)},
		obs.KV{K: "stencil_hits", V: float64(counts.stencilHits)})
	return s
}

func maxOf(grid []float64) float64 {
	var max float64
	for _, v := range grid {
		if v > max {
			max = v
		}
	}
	return max
}

// CongestionGrid accumulates Con(x,y) (Eq. 13) over every stride-th edge of
// the PCN (in global CSR order) and returns the router grid in row-major
// order. stride 1 is exact: each target's in-row, read from p.Symmetric()
// (built here if FD has not), is propagated by one sweep per quadrant of
// sources (DESIGN.md §10); a larger stride propagates each sampled edge alone.
//
// Targets (exact) or sources (sampled) fall into a fixed number of chunks
// independent of workers, each summed into its worker's scratch grid, whose
// touched rows are added in chunk order (a chunk done early waits its turn),
// so the grid is bit-identical for every worker count.
func CongestionGrid(p *pcn.PCN, pl *place.Placement, stride, workers int) []float64 {
	grid, _ := congestionGrid(p, clusterCoords(pl), pl.Mesh, stride, workers, true)
	return grid
}

// gridCounts is what the congestion sweeps report to Evaluate: the cells
// they covered, the targets added from a shared in-run's stencil, the
// stencils built and those taken from the memo and, on a sampled grid, the
// weight of the sampled edges.
type gridCounts struct {
	swept, runTargets, runTables, stencilHits int64
	sampledWeight                             float64
}

// congestionGrid is CongestionGrid on a cluster coordinate table, which
// Evaluate shares with its own edge walk; it also returns the sweeps' counts.
// memo false builds every stencil afresh, which tests hold to the same bits.
func congestionGrid(p *pcn.PCN, pos []cellXY, mesh hw.Mesh, stride, workers int, memo bool) ([]float64, gridCounts) {
	cores, cols := mesh.Cores(), mesh.Cols
	grid := make([]float64, cores)
	n, edges := p.NumClusters, int(p.NumEdges())
	if edges == 0 {
		return grid, gridCounts{}
	}
	// A stride of |E| or more samples edge 0 alone; capped, the skip
	// arithmetic below cannot overflow.
	stride = max(1, min(stride, edges))
	k := par.Chunks(n)
	var in *pcn.Symmetric
	if stride == 1 {
		in = p.Symmetric()
	}
	// accumulate adds chunk ci's sweeps to s.grid and leaves in s the rows
	// they touched.
	accumulate := func(ci int, s *sweep) (gc gridCounts) {
		lo, hi := ci*n/k, (ci+1)*n/k
		s.lo, s.hi = mesh.Rows, -1
		if in != nil {
			return s.exactChunk(in, pos, cols, lo, hi, memo)
		}
		// Every stride-th edge in global CSR order: skip carries across
		// clusters, so unsampled edges cost nothing and unsampled clusters one
		// comparison. The sampled edges' weight, which Evaluate rescales by, is
		// summed here and nowhere else.
		skip := sampleSkip(p.OutOff[lo], stride)
		for c := lo; c < hi; c++ {
			tos, ws := p.OutEdges(c)
			s.one[0] = int32(c)
			for ; skip < len(tos); skip += stride {
				gc.sampledWeight += ws[skip]
				gc.swept += s.propagate(s.grid, cols, pos, pos[tos[skip]], s.one[:], ws[skip:skip+1])
			}
			skip -= len(tos)
		}
		return gc
	}
	// Each chunk is summed into its worker's scratch grid, then waits under mu
	// for its turn and adds the rows it touched to grid, so every cell
	// receives the chunk-local sums in chunk order, whatever the schedule, and
	// the counts are summed in chunk order too. The wait ends: DoScratch hands
	// out chunks in increasing order, so chunk next is held by a worker that
	// is not waiting. The scratch is one grid per worker.
	var total gridCounts
	next := 0
	var mu sync.Mutex
	turn := sync.NewCond(&mu)
	par.DoScratch(workers, k, func(ci int, s *sweep) {
		if s.grid == nil {
			s.grid = make([]float64, cores)
		}
		c := accumulate(ci, s)
		at := s.lo * cols // lo > hi: at = cores, and no rows
		rows := s.grid[at:max(at, (s.hi+1)*cols)]
		mu.Lock()
		for ci != next {
			turn.Wait()
		}
		for i, x := range rows {
			grid[at+i] += x
		}
		total.swept += c.swept
		total.runTargets += c.runTargets
		total.runTables += c.runTables
		total.stencilHits += c.stencilHits
		total.sampledWeight += c.sampledWeight
		next++
		turn.Broadcast()
		mu.Unlock()
		clear(rows)
	})
	return grid, total
}

// exactChunk walks the exact grid's chunk of targets lo..hi-1 into s.grid: a
// target that starts no stretch is swept alone by propagate, a stretch is
// added from its stencil. It returns the cells the sweeps cover; with s.grid
// nil it sweeps nothing and only counts them. A chunk starts with no run, so
// which targets take the shared fields does not depend on which worker ran
// the chunk before; the memo may, but a hit adds the bits a miss would.
func (s *sweep) exactChunk(in *pcn.Symmetric, pos []cellXY, cols, lo, hi int, memo bool) (gc gridCounts) {
	s.run.from = nil
	for t := lo; t < hi; t++ {
		from, ws := in.InEdges(t)
		if len(from) == 0 {
			continue
		}
		e, cells := s.run.stretch(t, hi, from, ws, in, pos)
		if e == t {
			gc.swept += s.propagate(s.grid, cols, pos, pos[t], from, ws)
			continue
		}
		gc.swept += cells
		gc.runTargets += int64(e - t)
		switch {
		case s.grid == nil:
		case s.stencil(s.grid, cols, t, e, from, ws[0], pos, memo):
			gc.stencilHits++
		default:
			gc.runTables++
		}
		t = e - 1
	}
	return gc
}
