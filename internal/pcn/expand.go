package pcn

import (
	"fmt"

	"snnmap/internal/obs"
	"snnmap/internal/snn"
)

// Expand partitions a layer-spec Net analytically: every layer is cut into
// ceil(neurons/CON_npc) clusters (per-layer partitioning, matching
// Algorithm 1 on a layer-major neuron order), and each Conn is expanded into
// cluster-level edges according to its Pattern, with weights equal to the
// total spike traffic (synapse count × source spike density) attributed to
// each cluster pair. The result is identical in structure to running
// Algorithm 1 on the materialized graph, but needs no neuron storage.
// With cfg.Multilevel set, the multilevel partitioner runs instead.
func Expand(n *snn.Net, cfg PartitionConfig) (*PCN, error) {
	if cfg.Multilevel != nil {
		p, _, err := ExpandMultilevel(n, cfg)
		return p, err
	}
	sp := cfg.Obs.Span("partition.expand")
	p, err := expandWithGrain(n, cfg, 1)
	if err != nil {
		sp.End()
		return nil, err
	}
	sp.End(obs.KV{K: "clusters", V: float64(p.NumClusters)}, obs.KV{K: "edges", V: float64(p.NumEdges())})
	return p, nil
}

// layerPlan holds the per-layer cluster sizing of one expansion.
type layerPlan struct {
	per   []int64 // neurons per cluster (last cluster of a layer may be smaller)
	count []int   // clusters per layer
	first []int   // first cluster index per layer
	fanIn []int64 // synapses per neuron per layer
	total int     // total cluster count
}

// planLayers computes the cluster sizing at a granularity: grain 1 is the
// flat per-layer sizing; grain g > 1 divides each layer's cluster size by
// its largest divisor ≤ g, so fine cluster boundaries remain a superset of
// the flat ones (the multilevel grouping can always reproduce the flat
// partition exactly).
func planLayers(n *snn.Net, cfg PartitionConfig, grain int) (layerPlan, error) {
	npc := cfg.Constraints.NeuronsPerCore
	if npc <= 0 {
		return layerPlan{}, fmt.Errorf("pcn: expand requires a positive CON_npc, got %d", npc)
	}
	plan := layerPlan{
		per:   make([]int64, len(n.Layers)),
		count: make([]int, len(n.Layers)),
		first: make([]int, len(n.Layers)),
		fanIn: make([]int64, len(n.Layers)),
	}
	for _, c := range n.Conns {
		plan.fanIn[c.To] += c.FanIn
	}
	for li, l := range n.Layers {
		per := int64(npc)
		if cfg.EnforceSynapses && cfg.Constraints.SynapsesPerCore > 0 && plan.fanIn[li] > 0 {
			bySyn := int64(cfg.Constraints.SynapsesPerCore) / plan.fanIn[li]
			if bySyn < 1 {
				bySyn = 1
			}
			if bySyn < per {
				per = bySyn
			}
		}
		if grain > 1 {
			g := int64(grain)
			if g > per {
				g = per
			}
			for per%g != 0 {
				g--
			}
			per /= g
		}
		plan.per[li] = per
		plan.count[li] = int((l.Neurons + per - 1) / per)
		plan.first[li] = plan.total
		plan.total += plan.count[li]
	}
	return plan, nil
}

// estimateEdges returns the exact number of edges an expansion of the plan
// emits (self-edges included). It is the fine-graph size estimator for the
// multilevel grain adaptation; the streaming expansion itself sizes its CSR
// from the counting pass.
func estimateEdges(n *snn.Net, plan layerPlan) int64 {
	var est int64
	for _, c := range n.Conns {
		fc, tc := int64(plan.count[c.From]), int64(plan.count[c.To])
		switch c.Pattern {
		case snn.Dense:
			est += tc * fc
		case snn.Local:
			window := int64(c.Window)
			if window < 1 {
				window = 1
			}
			if window > fc {
				window = fc
			}
			est += tc * window
		default: // OneToOne and anything unknown (rejected later)
			est += tc
		}
	}
	return est
}

// expandWithGrain is the granular expansion core shared by Expand (grain 1)
// and ExpandMultilevel (grain > 1).
func expandWithGrain(n *snn.Net, cfg PartitionConfig, grain int) (*PCN, error) {
	if err := n.Validate(); err != nil {
		return nil, fmt.Errorf("pcn: invalid net: %w", err)
	}
	plan, err := planLayers(n, cfg, grain)
	if err != nil {
		return nil, err
	}

	p := &PCN{Name: n.Name, NumClusters: plan.total}
	p.Neurons = make([]int32, 0, plan.total)
	p.Synapses = make([]int64, 0, plan.total)
	p.Layer = make([]int32, 0, plan.total)
	for li, l := range n.Layers {
		per, count := plan.per[li], plan.count[li]
		for ci := 0; ci < count; ci++ {
			neurons := per
			if ci == count-1 {
				neurons = l.Neurons - per*int64(count-1)
			}
			p.Neurons = append(p.Neurons, int32(neurons))
			p.Synapses = append(p.Synapses, neurons*plan.fanIn[li])
			p.Layer = append(p.Layer, int32(li))
		}
	}

	// Expand connections by streaming the traversal twice instead of
	// materializing a (from, to, w) edge list and re-bucketing it: pass one
	// counts each source cluster's slots, pass two writes targets and
	// weights straight into the final CSR arrays through per-cluster
	// cursors, so only the 12 bytes/edge that survive in the PCN are ever
	// held (an edge list plus a bucket copy is 28 bytes/edge transient at the
	// 1M-cluster scale). Weight bookkeeping is unchanged: a Conn carries
	// total traffic T = To.Neurons × FanIn × rate(From); each target cluster
	// receives its neuron-proportional share, split across its source
	// clusters.
	counts := make([]int64, plan.total+1)
	if err := traverseConns(n, p, plan, func(f, t int, _ float64) {
		if f != t {
			counts[f+1]++
		}
	}); err != nil {
		return nil, err
	}
	for i := 0; i < plan.total; i++ {
		counts[i+1] += counts[i]
	}
	outTo := make([]int32, counts[plan.total])
	outW := make([]float64, counts[plan.total])
	next := make([]int64, plan.total)
	copy(next, counts[:plan.total])
	// The pattern error surfaced in pass one; pass two cannot fail.
	_ = traverseConns(n, p, plan, func(f, t int, weight float64) {
		if f == t {
			p.InternalTraffic += weight
			return
		}
		pos := next[f]
		next[f]++
		outTo[pos] = int32(t)
		outW[pos] = weight
	})
	p.OutOff, p.OutTo, p.OutW = finalizeCSR(counts, outTo, outW, cfg.Workers)
	return p, nil
}

// traverseConns streams every cluster-level edge of the net's connections
// (self-edges included) to emit, in a deterministic order grouped by Conn
// and target cluster. It is run twice by expandWithGrain — once counting,
// once writing — so the expansion never holds a full edge list.
func traverseConns(n *snn.Net, p *PCN, plan layerPlan, emit func(f, t int, weight float64)) error {
	for _, c := range n.Conns {
		fc, tc := plan.count[c.From], plan.count[c.To]
		f0, t0 := plan.first[c.From], plan.first[c.To]
		rate := n.RateOf(c.From)
		for tj := 0; tj < tc; tj++ {
			targetTraffic := float64(p.Neurons[t0+tj]) * float64(c.FanIn) * rate
			switch c.Pattern {
			case snn.Dense:
				// Source clusters contribute in proportion to their size.
				srcNeurons := float64(n.Layers[c.From].Neurons)
				for fi := 0; fi < fc; fi++ {
					share := float64(p.Neurons[f0+fi]) / srcNeurons
					emit(f0+fi, t0+tj, targetTraffic*share)
				}
			case snn.Local:
				window := c.Window
				if window < 1 {
					window = 1
				}
				if window > fc {
					window = fc
				}
				center := proportional(tj, tc, fc)
				start := center - (window-1)/2
				if start < 0 {
					start = 0
				}
				if start+window > fc {
					start = fc - window
				}
				share := targetTraffic / float64(window)
				for fi := start; fi < start+window; fi++ {
					emit(f0+fi, t0+tj, share)
				}
			case snn.OneToOne:
				emit(f0+proportional(tj, tc, fc), t0+tj, targetTraffic)
			default:
				return fmt.Errorf("pcn: unknown pattern %v in net %q", c.Pattern, n.Name)
			}
		}
	}
	return nil
}

// proportional maps index j of a tc-element sequence onto an fc-element
// sequence, preserving endpoints.
func proportional(j, tc, fc int) int {
	if tc <= 1 {
		return 0
	}
	return int(int64(j) * int64(fc-1) / int64(tc-1))
}
