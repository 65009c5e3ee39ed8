package main

import (
	"fmt"
	"math"

	"snnmap/internal/hw"
	"snnmap/internal/metrics"
	"snnmap/internal/pcn"
	"snnmap/internal/place"
)

// The checks below decide whether a repetition's outputs are correct. They
// read only the data structures the pipeline returned (CSR arrays, position
// arrays, the defect map) and share no code with the layers under test.

// tolerance is the relative error allowed between the pipeline's metrics
// and their recomputation: summation order differs, nothing else may.
const tolerance = 1e-9

// kahan is a compensated sum, so the recomputation's own rounding stays
// far below tolerance even over DNN_4B's 67M edges.
type kahan struct{ sum, c float64 }

func (k *kahan) add(x float64) {
	t := k.sum + x
	if math.Abs(k.sum) >= math.Abs(x) {
		k.c += (k.sum - t) + x
	} else {
		k.c += (x - t) + k.sum
	}
	k.sum = t
}

func (k *kahan) value() float64 { return k.sum + k.c }

// checkBijection verifies that posOf/clusterAt place every cluster on its
// own core, that the two directions agree, and that no cluster sits on a
// dead core or at or below row usableRows (the reserved spares).
func checkBijection(pl *place.Placement, clusters int, d *hw.DefectMap, usableRows int) error {
	cols := pl.Mesh.Cols
	cores := pl.Mesh.Rows * cols
	if len(pl.PosOf) != clusters || len(pl.ClusterAt) != cores {
		return fmt.Errorf("placement covers %d clusters on %d cores, want %d on %d", len(pl.PosOf), len(pl.ClusterAt), clusters, cores)
	}
	taken := make([]bool, cores)
	for c, pos := range pl.PosOf {
		idx := int(pos)
		switch {
		case idx < 0 || idx >= cores:
			return fmt.Errorf("cluster %d is on core %d, outside the mesh", c, idx)
		case taken[idx]:
			return fmt.Errorf("core %d holds two clusters", idx)
		case int(pl.ClusterAt[idx]) != c:
			return fmt.Errorf("cluster %d is on core %d, which records cluster %d", c, idx, pl.ClusterAt[idx])
		case d.IsDead(idx):
			return fmt.Errorf("cluster %d is on dead core %d", c, idx)
		case idx/cols >= usableRows:
			return fmt.Errorf("cluster %d is on spare row %d", c, idx/cols)
		}
		taken[idx] = true
	}
	occupied := 0
	for _, c := range pl.ClusterAt {
		if c != place.None {
			occupied++
		}
	}
	if occupied != clusters {
		return fmt.Errorf("%d cores are occupied by %d clusters", occupied, clusters)
	}
	return nil
}

// recomputed holds Eqs. 9-12 evaluated edge by edge from the CSR arrays.
type recomputed struct {
	energy, avgLatency, maxLatency, avgCongestion float64
	// visits is Σ w·(d+1), the total the congestion grid must sum to, and
	// sampledVisits the same over every stride-th edge.
	visits, sampledVisits float64
	// bboxWork is Σ bounding-box areas, which decides whether Evaluate's
	// automatic mode accumulates every edge or a stride sample.
	bboxWork int64
}

// evaluateSampleEdges and evaluateExactWorkLimit are the documented
// defaults of metrics.Options.
const (
	evaluateSampleEdges    = 200_000
	evaluateExactWorkLimit = 500_000_000
)

// congestionStride is the documented edge stride of the sampled congestion
// mode: every ceil(E/SampleEdges)-th edge once E exceeds SampleEdges.
func congestionStride(edges int64) int64 {
	if edges > evaluateSampleEdges {
		return (edges + evaluateSampleEdges - 1) / evaluateSampleEdges
	}
	return 1
}

func recompute(p *pcn.PCN, posOf []int32, mesh hw.Mesh, cm hw.CostModel) recomputed {
	cols := int32(mesh.Cols)
	stride := congestionStride(int64(len(p.OutTo)))
	var r recomputed
	var energy, latency, weight, visits, sampled kahan
	for c := 0; c < p.NumClusters; c++ {
		src := posOf[c]
		sr, sc := src/cols, src%cols
		for e := p.OutOff[c]; e < p.OutOff[c+1]; e++ {
			dst := posOf[p.OutTo[e]]
			dr, dc := sr-dst/cols, sc-dst%cols
			if dr < 0 {
				dr = -dr
			}
			if dc < 0 {
				dc = -dc
			}
			hops := float64(dr + dc)
			w := p.OutW[e]
			energy.add(w * ((hops+1)*cm.RouterEnergy + hops*cm.WireEnergy))
			lat := (hops+1)*cm.RouterLatency + hops*cm.WireLatency
			latency.add(w * lat)
			r.maxLatency = math.Max(r.maxLatency, lat)
			weight.add(w)
			visits.add(w * (hops + 1))
			if e%stride == 0 {
				sampled.add(w * (hops + 1))
			}
			r.bboxWork += int64(dr+1) * int64(dc+1)
		}
	}
	r.energy = energy.value()
	if weight.value() > 0 {
		r.avgLatency = latency.value() / weight.value()
	}
	r.visits, r.sampledVisits = visits.value(), sampled.value()
	r.avgCongestion = r.visits / float64(mesh.Rows*mesh.Cols)
	return r
}

// checkSummary compares the pipeline's Summary with the recomputation.
func checkSummary(s metrics.Summary, r recomputed) []string {
	var bad []string
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"energy", s.Energy, r.energy},
		{"avg_latency", s.AvgLatency, r.avgLatency},
		{"max_latency", s.MaxLatency, r.maxLatency},
		{"avg_congestion", s.AvgCongestion, r.avgCongestion},
	} {
		if d := relDiff(c.got, c.want); !(d <= tolerance) {
			bad = append(bad, fmt.Sprintf("%s: pipeline %.17g, recomputed %.17g (rel %.3g)", c.name, c.got, c.want, d))
		}
	}
	if !(s.MaxCongestion >= s.AvgCongestion) {
		bad = append(bad, fmt.Sprintf("max_congestion %.17g < avg_congestion %.17g", s.MaxCongestion, s.AvgCongestion))
	}
	return bad
}

// checkOutputs runs every check that needs no extra call into a layer and
// returns the failures. The recomputation is returned for the traced
// repetition's congestion-grid check.
func checkOutputs(st *state) ([]string, recomputed) {
	var bad []string
	fail := func(format string, args ...any) { bad = append(bad, fmt.Sprintf(format, args...)) }

	clusters := st.pcn.NumClusters
	if st.preRepair != nil {
		// Before the row failed the placement avoided the spares; the
		// repairs may use them, but not a dead core.
		if err := checkBijection(st.preRepair, clusters, st.defects, st.cons.UsableRows(st.mesh)); err != nil {
			fail("fine-tuned placement: %v", err)
		}
		if err := checkBijection(st.pl, clusters, st.fieldDefects, st.mesh.Rows); err != nil {
			fail("row-shift repair: %v", err)
		}
		if err := checkBijection(st.perCluster, clusters, st.fieldDefects, st.mesh.Rows); err != nil {
			fail("per-cluster repair: %v", err)
		}
		if st.rowRemap.EnergyAfter > st.remap.EnergyAfter*(1+tolerance) {
			fail("RemapRows energy %.17g is worse than Remap's %.17g", st.rowRemap.EnergyAfter, st.remap.EnergyAfter)
		}
	} else if err := checkBijection(st.pl, clusters, st.defects, st.cons.UsableRows(st.mesh)); err != nil {
		fail("placement: %v", err)
	}

	r := recompute(st.pcn, st.pl.PosOf, st.mesh, cost)
	bad = append(bad, checkSummary(st.summary, r)...)

	if st.fd.FinalEnergy > st.fd.InitialEnergy {
		fail("FD energy rose from %.17g to %.17g", st.fd.InitialEnergy, st.fd.FinalEnergy)
	}
	if !st.fd.Converged {
		fail("FD did not converge in %d sweeps", st.fd.Iterations)
	}
	if st.sim != nil && st.sim.Injected != st.sim.Delivered+st.sim.Dropped {
		fail("NoC injected %d spikes but delivered %d and dropped %d", st.sim.Injected, st.sim.Delivered, st.sim.Dropped)
	}
	if st.multicast != nil && st.multicast.Energy > st.multicast.UnicastEnergy {
		fail("multicast energy %.17g exceeds unicast %.17g", st.multicast.Energy, st.multicast.UnicastEnergy)
	}
	return bad, r
}
