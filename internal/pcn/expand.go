package pcn

import (
	"fmt"

	"snnmap/internal/obs"
	"snnmap/internal/place"
	"snnmap/internal/snn"
)

// Expand partitions a layer-spec Net analytically: every layer is cut into
// ceil(neurons/CON_npc) clusters (per-layer partitioning, matching
// Algorithm 1 on a layer-major neuron order), and each Conn is expanded into
// cluster-level edges according to its Pattern, with weights equal to the
// total spike traffic (synapse count × source spike density) attributed to
// each cluster pair. The result is identical in structure to running
// Algorithm 1 on the materialized graph, but needs no neuron storage.
// Multilevel partitioning is for explicit graphs only: a non-nil
// cfg.Multilevel is an error wrapping place.ErrBadConfig.
func Expand(n *snn.Net, cfg PartitionConfig) (*PCN, error) {
	if cfg.Multilevel != nil {
		return nil, fmt.Errorf("pcn: multilevel partitioning takes an explicit graph, not a layer-spec net: %w", place.ErrBadConfig)
	}
	sp := cfg.Obs.Span("partition.expand")
	p, err := expand(n, cfg)
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

// planLayers computes the per-layer cluster sizing: CON_npc neurons per
// cluster, lowered to fit CON_spc when synapse limits are enforced.
func planLayers(n *snn.Net, cfg PartitionConfig) (layerPlan, error) {
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
		plan.per[li] = per
		plan.count[li] = int((l.Neurons + per - 1) / per)
		plan.first[li] = plan.total
		plan.total += plan.count[li]
	}
	return plan, nil
}

// expand is Expand without its telemetry span: plan the per-layer clusters,
// then stream the connections into the PCN's CSR.
func expand(n *snn.Net, cfg PartitionConfig) (*PCN, error) {
	if err := n.Validate(); err != nil {
		return nil, fmt.Errorf("pcn: invalid net: %w", err)
	}
	plan, err := planLayers(n, cfg)
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
// and target cluster. It is run twice by expand — once counting,
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
