package pcn

import (
	"fmt"

	"snnmap/internal/snn"
)

// The partition-refinement pass. Most prior mapping work (SpiNeMap,
// PSOPART, DFSynthesizer — §2.2) optimizes the *partitioning* of neurons to
// minimize inter-cluster traffic before any placement happens. This file
// provides that substrate: a Kernighan–Lin/Fiduccia–Mattheyses-style local
// refinement that moves individual neurons between adjacent clusters when
// doing so reduces the total cut weight (Σ w_P), while respecting the
// hardware constraints. The paper's own pipeline uses the plain Algorithm 1
// partition (their contribution is placement); RefinePartition lets the
// library reproduce the partition-centric baselines faithfully and measure
// how much cut reduction is available.

// RefineStats reports what RefinePartition did.
type RefineStats struct {
	// Passes is the number of sweeps executed.
	Passes int
	// Moves is the number of neurons relocated.
	Moves int64
	// CutBefore and CutAfter are the total inter-cluster traffic before
	// and after refinement.
	CutBefore, CutAfter float64
}

// RefinePartition improves a neuron→cluster assignment produced by
// Partition: each pass walks every neuron and moves it to the neighboring
// cluster (one that already holds a synaptic partner) that most reduces the
// cut weight, if cfg's capacity and layer constraints allow, for at most
// refinePasses sweeps. It returns the refined PCN, the updated assignment,
// and statistics. The input Result is not modified.
//
// Per-cluster occupancy is recounted from in.ClusterOf and g.FanIn rather
// than read from in.PCN, so an assignment edited without its PCN cannot
// smuggle stale counts through. The input must already fit CON_npc.
func RefinePartition(g *snn.Graph, in *Result, cfg PartitionConfig) (*Result, RefineStats, error) {
	if in == nil || in.PCN == nil {
		return nil, RefineStats{}, fmt.Errorf("pcn: refine needs an input partition and its PCN")
	}
	if len(in.ClusterOf) != g.NumNeurons {
		return nil, RefineStats{}, fmt.Errorf("pcn: assignment covers %d neurons, graph has %d", len(in.ClusterOf), g.NumNeurons)
	}
	npc := cfg.Constraints.NeuronsPerCore
	if npc <= 0 {
		return nil, RefineStats{}, fmt.Errorf("pcn: refine requires a positive CON_npc")
	}
	spc := int64(cfg.Constraints.SynapsesPerCore)

	clusterOf := make([]int32, len(in.ClusterOf))
	copy(clusterOf, in.ClusterOf)
	numClusters := in.PCN.NumClusters

	// Mutable per-cluster occupancy.
	neurons := make([]int32, numClusters)
	synapses := make([]int64, numClusters)
	for v, c := range clusterOf {
		if c < 0 || int(c) >= numClusters {
			return nil, RefineStats{}, fmt.Errorf("pcn: neuron %d assigned to cluster %d, PCN has %d", v, c, numClusters)
		}
		neurons[c]++
		synapses[c] += int64(g.FanIn[v])
	}
	for c, n := range neurons {
		if int(n) > npc {
			return nil, RefineStats{}, fmt.Errorf("pcn: input cluster %d holds %d neurons, CON_npc is %d", c, n, npc)
		}
	}
	layerOf := make([]int32, numClusters)
	copy(layerOf, in.PCN.Layer)

	// Incoming adjacency of the neuron graph (needed to score moves in
	// both directions).
	inOff, inFrom, inW := neuronInCSR(g)

	var stats RefineStats
	stats.CutBefore = in.PCN.TotalWeight()

	// Cluster membership lists with O(1) removal (member index per neuron),
	// needed for swap-partner scans.
	members := make([][]int32, numClusters)
	memberIdx := make([]int32, g.NumNeurons)
	for v := 0; v < g.NumNeurons; v++ {
		c := clusterOf[v]
		memberIdx[v] = int32(len(members[c]))
		members[c] = append(members[c], int32(v))
	}
	removeMember := func(v int32) {
		c := clusterOf[v]
		list := members[c]
		last := list[len(list)-1]
		list[memberIdx[v]] = last
		memberIdx[last] = memberIdx[v]
		members[c] = list[:len(list)-1]
	}
	addMember := func(v, c int32) {
		memberIdx[v] = int32(len(members[c]))
		members[c] = append(members[c], v)
		clusterOf[v] = c
	}

	layerTag := func(v int32) int32 {
		if g.Layer == nil {
			return -1
		}
		return g.Layer[v]
	}

	// neuronGains fills gain with, per cluster, the traffic neuron v
	// exchanges with that cluster, and cand with those clusters in
	// first-seen neighbour order (out-edges, then in-edges): refineLevel's
	// dense scratch, reset through cand on the next call, so candidates are
	// examined in an order that does not depend on map iteration. Moving v
	// from c to d changes the cut by gain[d] − gain[c].
	gain := make([]float64, numClusters)
	seen := make([]bool, numClusters)
	var cand []int32
	addGain := func(d int32, w float64) {
		if !seen[d] {
			seen[d] = true
			cand = append(cand, d)
		}
		gain[d] += w
	}
	neuronGains := func(v int32) {
		for _, d := range cand {
			gain[d], seen[d] = 0, false
		}
		cand = cand[:0]
		tos, ws := g.OutEdges(int(v))
		for k, to := range tos {
			addGain(clusterOf[to], ws[k])
		}
		for k := inOff[v]; k < inOff[v+1]; k++ {
			addGain(clusterOf[inFrom[k]], inW[k])
		}
	}

	// edgeWeight returns the combined (both-direction) traffic between two
	// neurons, needed to correct swap gains for directly connected pairs.
	edgeWeight := func(a, b int32) float64 {
		var w float64
		tos, ws := g.OutEdges(int(a))
		for k, to := range tos {
			if to == b {
				w += ws[k]
			}
		}
		tos, ws = g.OutEdges(int(b))
		for k, to := range tos {
			if to == a {
				w += ws[k]
			}
		}
		return w
	}

	fitsAfterSwap := func(c int32, out, in int32) bool {
		if !cfg.EnforceSynapses || spc <= 0 {
			return true
		}
		return synapses[c]-int64(g.FanIn[out])+int64(g.FanIn[in]) <= spc
	}

	for pass := 0; pass < refinePasses; pass++ {
		var movesThisPass int64
		for vi := 0; vi < g.NumNeurons; vi++ {
			v := int32(vi)
			cv := clusterOf[v]
			vLayer := layerTag(v)
			neuronGains(v)
			internal := gain[cv]

			// Best single move into a cluster with free capacity.
			bestCluster := cv
			bestGain := minGain
			for _, d := range cand {
				if d == cv {
					continue
				}
				moveGain := gain[d] - internal
				if moveGain <= bestGain {
					continue
				}
				if int(neurons[d])+1 > npc {
					continue
				}
				if cfg.EnforceSynapses && spc > 0 && synapses[d]+int64(g.FanIn[v]) > spc {
					continue
				}
				if cfg.SplitAtLayers && vLayer >= 0 && layerOf[d] != vLayer {
					continue
				}
				// Never empty a cluster: indices must stay dense.
				if neurons[cv] == 1 {
					continue
				}
				bestGain = moveGain
				bestCluster = d
			}
			if bestCluster != cv {
				neurons[cv]--
				synapses[cv] -= int64(g.FanIn[v])
				neurons[bestCluster]++
				synapses[bestCluster] += int64(g.FanIn[v])
				removeMember(v)
				addMember(v, bestCluster)
				movesThisPass++
				continue
			}

			// No feasible move: look for a pairwise swap with a neuron of
			// the cluster v most wants to join (the KL step that works
			// when every cluster is at capacity).
			targetD := cv
			targetTraffic := internal
			for _, d := range cand {
				if d == cv || gain[d] <= targetTraffic {
					continue
				}
				if cfg.SplitAtLayers && vLayer >= 0 && layerOf[d] != vLayer {
					continue
				}
				targetD = d
				targetTraffic = gain[d]
			}
			if targetD == cv {
				continue
			}
			gainV := targetTraffic - internal
			var bestU int32 = -1
			bestSwap := minGain
			for _, u := range members[targetD] {
				if cfg.SplitAtLayers && layerTag(u) >= 0 && layerOf[cv] != layerTag(u) {
					continue
				}
				neuronGains(u) // v's gains are spent: gainV holds what the swap needs
				gainU := gain[cv] - gain[targetD]
				swapGain := gainV + gainU - 2*edgeWeight(v, u)
				if swapGain <= bestSwap {
					continue
				}
				if !fitsAfterSwap(cv, v, u) || !fitsAfterSwap(targetD, u, v) {
					continue
				}
				bestSwap = swapGain
				bestU = u
			}
			if bestU >= 0 {
				dv, du := int64(g.FanIn[v]), int64(g.FanIn[bestU])
				synapses[cv] += du - dv
				synapses[targetD] += dv - du
				removeMember(v)
				removeMember(bestU)
				addMember(v, targetD)
				addMember(bestU, cv)
				movesThisPass += 2
			}
		}
		stats.Passes++
		stats.Moves += movesThisPass
		if movesThisPass == 0 {
			break
		}
	}

	out, err := rebuildFromAssignment(g, clusterOf, neurons, synapses, layerOf, cfg.Workers)
	if err != nil {
		return nil, RefineStats{}, err
	}
	stats.CutAfter = out.PCN.TotalWeight()
	return out, stats, nil
}

// rebuildFromAssignment constructs a PCN from an explicit neuron→cluster
// assignment with known per-cluster occupancy.
func rebuildFromAssignment(g *snn.Graph, clusterOf []int32, neurons []int32, synapses []int64, layers []int32, workers int) (*Result, error) {
	p := &PCN{
		NumClusters: len(neurons),
		Neurons:     neurons,
		Synapses:    synapses,
		Layer:       layers,
	}
	csrFromAssignment(p, g.OutOff, g.OutTo, g.OutW, clusterOf, workers)
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("pcn: refined partition invalid: %w", err)
	}
	return &Result{PCN: p, ClusterOf: clusterOf}, nil
}

// neuronInCSR builds the incoming-synapse CSR of a neuron graph.
func neuronInCSR(g *snn.Graph) (off []int64, from []int32, w []float64) {
	n := g.NumNeurons
	off = make([]int64, n+1)
	for _, to := range g.OutTo {
		off[to+1]++
	}
	for i := 0; i < n; i++ {
		off[i+1] += off[i]
	}
	from = make([]int32, len(g.OutTo))
	w = make([]float64, len(g.OutW))
	next := make([]int64, n)
	copy(next, off[:n])
	for u := 0; u < n; u++ {
		tos, ws := g.OutEdges(u)
		for k, to := range tos {
			pos := next[to]
			next[to]++
			from[pos] = int32(u)
			w[pos] = ws[k]
		}
	}
	return off, from, w
}
