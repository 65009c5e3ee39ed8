package metrics

import (
	"slices"
	"sort"

	"snnmap/internal/geom"
	"snnmap/internal/hw"
	"snnmap/internal/pcn"
	"snnmap/internal/place"
)

// Multicast extension. The paper's metrics (Eq. 9) charge every PCN edge
// independently — unicast routing, where a spike destined to k clusters is
// sent k times. Large neuromorphic NoCs (SpiNNaker's multicast router,
// TrueNorth's spike duplication) instead route one copy along a tree and
// fork at branch points. MulticastEnergy evaluates a placement under that
// model: per source cluster, spikes follow a dimension-ordered (column-
// first, matching the simulator's XY order) multicast tree, and each link
// or router carries only the *maximum* downstream demand (nested spike
// streams), which is the optimistic lower bound of tree routing.
//
// Invariants (tested): multicast energy never exceeds the unicast energy,
// and equals it when every source has at most one target.

// MulticastSummary reports the tree-routing evaluation.
type MulticastSummary struct {
	// Energy is the multicast interconnect energy (same units as Eq. 9).
	Energy float64
	// UnicastEnergy is the paper's Eq. 9 value for comparison.
	UnicastEnergy float64
	// LinkTraversals and RouterTraversals are total weighted loads.
	LinkTraversals, RouterTraversals float64
}

// Saving returns the fraction of unicast energy removed by multicast
// routing (0 when unicast is zero).
func (m MulticastSummary) Saving() float64 {
	if m.UnicastEnergy == 0 {
		return 0
	}
	return 1 - m.Energy/m.UnicastEnergy
}

// mcTarget is one multicast destination with its traffic demand.
type mcTarget struct {
	pos geom.Point
	w   float64
}

// lineStop is where a straight run of the tree hands traffic on: a column of
// the trunk or a row of a branch, with the largest demand leaving there.
type lineStop struct {
	at int
	w  float64
}

// MulticastEnergy evaluates the placement under dimension-ordered multicast
// tree routing.
func MulticastEnergy(p *pcn.PCN, pl *place.Placement, cost hw.CostModel) MulticastSummary {
	var s MulticastSummary

	var targets []mcTarget
	var stops []lineStop
	for c := 0; c < p.NumClusters; c++ {
		src := pl.Of(c)
		tos, ws := p.OutEdges(c)
		if len(tos) == 0 {
			continue
		}
		targets = targets[:0]
		for k, to := range tos {
			dst := pl.Of(int(to))
			w := ws[k]
			targets = append(targets, mcTarget{pos: dst, w: w})
			d := geom.Manhattan(src, dst)
			s.UnicastEnergy += w * cost.SpikeEnergy(d)
		}

		// The tree: one horizontal trunk along the source row, branching
		// vertically at each target column. Column-first order matches the
		// XY routing of the NoC substrate.
		sort.Slice(targets, func(a, b int) bool {
			if targets[a].pos.Y != targets[b].pos.Y {
				return targets[a].pos.Y < targets[b].pos.Y
			}
			return targets[a].pos.X < targets[b].pos.X
		})

		// The trunk stops at each target column with that column's largest
		// demand; the source router carries the largest of them all.
		stops = stops[:0]
		var totalMax float64
		for _, t := range targets {
			totalMax = max(totalMax, t.w)
			if n := len(stops); n > 0 && stops[n-1].at == t.pos.Y {
				stops[n-1].w = max(stops[n-1].w, t.w)
				continue
			}
			stops = append(stops, lineStop{at: t.pos.Y, w: t.w})
		}
		s.RouterTraversals += totalMax
		s.accumLine(src.Y, stops)

		// Each column's vertical branch leaves the trunk at the source row
		// and stops at every target of the column. A target on the source
		// row is delivered by the trunk router already charged, matching
		// Eq. 9's (d+1) router count.
		for i := 0; i < len(targets); {
			stops = stops[:0]
			for _, t := range targets[i:] {
				if t.pos.Y != targets[i].pos.Y {
					break
				}
				stops = append(stops, lineStop{at: t.pos.X, w: t.w})
			}
			i += len(stops)
			s.accumLine(src.X, stops)
		}
	}
	s.Energy = s.RouterTraversals*cost.RouterEnergy + s.LinkTraversals*cost.WireEnergy
	return s
}

// accumLine charges the two straight runs from origin through stops, which
// are sorted by position: first the run toward higher positions, then the
// run toward lower ones. Every link and router up to a stop carries the
// largest demand at or beyond that stop. Stops at origin are left to its
// router, which the caller charges. accumLine overwrites stops.
func (s *MulticastSummary) accumLine(origin int, stops []lineStop) {
	lo := sort.Search(len(stops), func(i int) bool { return stops[i].at >= origin })
	hi := sort.Search(len(stops), func(i int) bool { return stops[i].at > origin })
	slices.Reverse(stops[:lo])
	for _, run := range [2][]lineStop{stops[hi:], stops[:lo]} {
		for i := len(run) - 2; i >= 0; i-- {
			run[i].w = max(run[i].w, run[i+1].w)
		}
		prev := origin
		for _, st := range run {
			span := geom.Abs(st.at - prev)
			s.LinkTraversals += float64(span) * st.w
			if span > 1 {
				s.RouterTraversals += float64(span-1) * st.w
			}
			s.RouterTraversals += st.w
			prev = st.at
		}
	}
}
