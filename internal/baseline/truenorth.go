package baseline

import (
	"fmt"
	"sort"
	"time"

	"snnmap/internal/hw"
	"snnmap/internal/pcn"
	"snnmap/internal/place"
	"snnmap/internal/toposort"
)

// TrueNorth implements the layer-by-layer heuristic of the TrueNorth
// ecosystem (Sawada et al., SC'16) as described in §2.2: clusters of the
// input layer are placed at predefined positions (row-major from the
// top-left corner); each cluster of every following layer is placed on the
// free core minimizing the traffic-weighted sum of distances to its already
// placed inward neighbors.
//
// The minimizing core is found exactly: the cost Σ w·(|x−x_k| + |y−y_k|) is
// separable, so per-row and per-column cost curves are evaluated once and
// every free core is scanned in O(1) each.
//
// TrueNorth has no iterative refinement, so (as the paper notes) it cannot
// early-stop meaningfully; when the budget expires the remaining clusters
// are placed on the first free cores and EarlyStopped is reported.
func TrueNorth(p *pcn.PCN, mesh hw.Mesh, opts Options) (*place.Placement, Stats, error) {
	opts = opts.withDefaults()
	start := time.Now()
	pl, err := place.New(p.NumClusters, mesh)
	if err != nil {
		return nil, Stats{}, err
	}
	var stats Stats

	// Process clusters layer by layer; clusters without layer tags fall
	// back to topological order treated as one stream.
	order, layerOf := layerOrder(p)

	// Incoming adjacency with weights (inward clusters).
	sym := p.Symmetric()

	var deadline time.Time
	if opts.Budget > 0 {
		deadline = start.Add(opts.Budget)
	}

	// Per-row/per-column cost buffers.
	rowCost := make([]float64, mesh.Rows)
	colCost := make([]float64, mesh.Cols)
	nextFree := 0 // cursor for predefined/fallback placement

	assignFirstFree := func(c int32) {
		for pl.ClusterAt[nextFree] != place.None {
			nextFree++
		}
		pl.Assign(int(c), int32(nextFree))
	}

	firstLayer := int32(-2)
	for oi, c := range order {
		if oi == 0 {
			firstLayer = layerOf[c]
		}
		if !deadline.IsZero() && oi%256 == 0 && time.Now().After(deadline) {
			// Budget exhausted: place the remainder on free cores.
			for _, rest := range order[oi:] {
				assignFirstFree(rest)
			}
			stats.EarlyStopped = true
			stats.Elapsed = time.Since(start)
			return pl, stats, nil
		}
		// Collect already placed inward neighbors.
		var xs, ys []weightedCoord
		from, ws := sym.InEdges(int(c))
		m := pcn.WeightMask(from, ws)
		for k, src := range from {
			if pos := pl.PosOf[src]; pos != place.None {
				pt := mesh.Coord(int(pos))
				xs = append(xs, weightedCoord{pt.X, ws[k&m]})
				ys = append(ys, weightedCoord{pt.Y, ws[k&m]})
			}
		}
		if layerOf[c] == firstLayer || len(xs) == 0 {
			// Predefined position for the input layer (and for clusters
			// with no placed inward neighbor).
			assignFirstFree(c)
			continue
		}
		fillAxisCost(rowCost, xs)
		fillAxisCost(colCost, ys)
		// Exact scan over free cores.
		best := int32(-1)
		bestCost := 0.0
		for idx := 0; idx < mesh.Cores(); idx++ {
			if pl.ClusterAt[idx] != place.None {
				continue
			}
			cost := rowCost[idx/mesh.Cols] + colCost[idx%mesh.Cols]
			if best == -1 || cost < bestCost {
				best = int32(idx)
				bestCost = cost
			}
		}
		stats.Evaluations += int64(mesh.Cores())
		if best == -1 {
			return nil, Stats{}, fmt.Errorf("baseline: truenorth found no free core for cluster %d", c)
		}
		pl.Assign(int(c), best)
		stats.Moves++
	}
	stats.Elapsed = time.Since(start)
	return pl, stats, nil
}

type weightedCoord struct {
	v int
	w float64
}

// fillAxisCost writes cost[i] = Σ w·|i − v| for every axis index.
func fillAxisCost(cost []float64, pts []weightedCoord) {
	sort.Slice(pts, func(i, j int) bool { return pts[i].v < pts[j].v })
	// Prefix sums of weights and weighted coordinates.
	var wBelow, wvBelow float64
	var wAbove, wvAbove float64
	for _, p := range pts {
		wAbove += p.w
		wvAbove += p.w * float64(p.v)
	}
	k := 0
	for i := range cost {
		for k < len(pts) && pts[k].v < i {
			wBelow += pts[k].w
			wvBelow += pts[k].w * float64(pts[k].v)
			wAbove -= pts[k].w
			wvAbove -= pts[k].w * float64(pts[k].v)
			k++
		}
		// Points below i contribute w·(i−v); points at or above contribute
		// w·(v−i).
		cost[i] = (wBelow*float64(i) - wvBelow) + (wvAbove - wAbove*float64(i))
	}
}

// layerOrder returns clusters sorted by (layer, index) together with the
// effective per-cluster layer. Untagged PCNs use topological positions as
// pseudo-layers, preserving the heuristic's feed-forward sweep.
func layerOrder(p *pcn.PCN) (order []int32, layerOf []int32) {
	layerOf = make([]int32, p.NumClusters)
	if p.NumLayers() > 0 {
		copy(layerOf, p.Layer)
	} else {
		seq := toposort.Sort(p)
		copy(layerOf, seq)
	}
	order = make([]int32, p.NumClusters)
	for i := range order {
		order[i] = int32(i)
	}
	sort.SliceStable(order, func(a, b int) bool {
		return layerOf[order[a]] < layerOf[order[b]]
	})
	return order, layerOf
}
