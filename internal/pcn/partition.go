package pcn

import (
	"fmt"

	"snnmap/internal/hw"
	"snnmap/internal/obs"
	"snnmap/internal/snn"
)

// PartitionConfig controls Algorithm 1.
type PartitionConfig struct {
	// Constraints holds CON_npc and CON_spc.
	Constraints hw.Constraints
	// EnforceSynapses makes CON_spc a hard partitioning limit. The paper's
	// published Table 3 cluster counts imply it was treated as a soft
	// reporting limit (see DESIGN.md), so the default is false.
	EnforceSynapses bool
	// SplitAtLayers closes the current cluster at layer boundaries when the
	// source graph carries layer tags. The paper's per-layer cluster counts
	// (e.g. LeNet-MNIST = 9) require it; default true in DefaultPartition.
	SplitAtLayers bool
	// Multilevel is ignored: Partition and Expand run Algorithm 1 whatever
	// it holds.
	//
	// Deprecated: part of the PartitionMultilevel shim (shim.go).
	Multilevel *MultilevelOptions
	// Workers fans the per-cluster merge of parallel edges (finalizeCSR) out
	// over up to this many goroutines (0 or 1 = sequential). It is
	// bit-identity-preserving: a merged row depends only on that row's
	// entries, and rows are compacted in cluster order regardless of the
	// count.
	Workers int
	// Obs receives phase spans; nil disables telemetry. Observe-only: it
	// never affects the partition produced.
	Obs *obs.Observer
}

// DefaultPartition returns the configuration that reproduces the paper's
// Table 3 cluster structure with the Table 2 target hardware.
func DefaultPartition() PartitionConfig {
	return PartitionConfig{
		Constraints:   hw.DefaultConstraints(),
		SplitAtLayers: true,
	}
}

// Result pairs a PCN with the neuron→cluster assignment.
type Result struct {
	PCN *PCN
	// ClusterOf[i] is the cluster index neuron i was partitioned into.
	ClusterOf []int32
}

// Partition runs Algorithm 1: walk neurons in index order, accumulating them
// into the latest cluster until a hardware limitation forbids it, then start
// a new cluster; finally build E_P and w_P from the synapses that cross
// cluster boundaries (Eqs. 5–6).
func Partition(g *snn.Graph, cfg PartitionConfig) (*Result, error) {
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("pcn: invalid input graph: %w", err)
	}
	sp := cfg.Obs.Span("partition.flat")
	clusterOf, neurons, synapses, layers, err := assignClusters(g, cfg)
	if err != nil {
		sp.End()
		return nil, err
	}
	p := &PCN{NumClusters: len(neurons), Neurons: neurons, Synapses: synapses, Layer: layers}

	cross := csrFromAssignment(p, g.OutOff, g.OutTo, g.OutW, clusterOf, cfg.Workers)
	sp.End(obs.KV{K: "clusters", V: float64(p.NumClusters)}, obs.KV{K: "edges", V: float64(p.NumEdges())},
		obs.KV{K: "cross_synapses", V: float64(cross)})
	return &Result{PCN: p, ClusterOf: clusterOf}, nil
}

// assignClusters is the Algorithm 1 walk alone: the neuron→cluster
// assignment and per-cluster occupancy, without building the cluster edge
// list, on a graph the caller has validated. Every cluster is a contiguous
// neuron range. Partition completes it into a PCN.
func assignClusters(g *snn.Graph, cfg PartitionConfig) (clusterOf []int32, neurons []int32, synapses []int64, layers []int32, err error) {
	npc := cfg.Constraints.NeuronsPerCore
	spc := cfg.Constraints.SynapsesPerCore
	if npc <= 0 {
		return nil, nil, nil, nil, fmt.Errorf("pcn: partition requires a positive CON_npc, got %d", npc)
	}

	clusterOf = make([]int32, g.NumNeurons)
	curNeurons := 0
	var curSynapses int64
	curLayer := int32(-1)

	flush := func() {
		if curNeurons == 0 {
			return
		}
		neurons = append(neurons, int32(curNeurons))
		synapses = append(synapses, curSynapses)
		layers = append(layers, curLayer)
		curNeurons = 0
		curSynapses = 0
	}

	for i := 0; i < g.NumNeurons; i++ {
		layer := int32(-1)
		if g.Layer != nil {
			layer = g.Layer[i]
		}
		fanIn := int64(g.FanIn[i])
		switch {
		case curNeurons == 0:
			// Always admit into an empty cluster: a single neuron that
			// alone exceeds CON_spc cannot be split further.
		case curNeurons+1 > npc:
			flush()
		case cfg.EnforceSynapses && spc > 0 && curSynapses+fanIn > int64(spc):
			flush()
		case cfg.SplitAtLayers && layer != curLayer && layer >= 0:
			flush()
		}
		if curNeurons == 0 {
			curLayer = layer
		}
		clusterOf[i] = int32(len(neurons))
		curNeurons++
		curSynapses += fanIn
	}
	flush()
	return clusterOf, neurons, synapses, layers, nil
}

// csrFromAssignment builds E_P and w_P (Eqs. 5–6) for p from a neuron graph's
// CSR and the assignment of its rows to p's clusters: entries whose endpoints share a cluster add to InternalTraffic,
// the rest are counted, then written straight into exact-sized per-cluster
// buckets in (source row, entry index) order and merged by finalizeCSR, so no
// (from, to, w) edge list is ever held. It returns the raw cross-entry count.
func csrFromAssignment(p *PCN, off []int64, to []int32, w []float64, of []int32, workers int) int64 {
	n := p.NumClusters
	counts := make([]int64, n+1)
	for u, cu := range of {
		for _, v := range to[off[u]:off[u+1]] {
			if of[v] != cu {
				counts[cu+1]++
			}
		}
	}
	for i := 0; i < n; i++ {
		counts[i+1] += counts[i]
	}
	rawTo := make([]int32, counts[n])
	rawW := make([]float64, counts[n])
	next := make([]int64, n)
	copy(next, counts[:n])
	for u, cu := range of {
		for k := off[u]; k < off[u+1]; k++ {
			cv := of[to[k]]
			if cv == cu {
				p.InternalTraffic += w[k]
				continue
			}
			rawTo[next[cu]], rawW[next[cu]] = cv, w[k]
			next[cu]++
		}
	}
	p.OutOff, p.OutTo, p.OutW = finalizeCSR(counts, rawTo, rawW, workers)
	return counts[n]
}
