package pcn

import (
	"fmt"
	"math"

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
func Expand(n *snn.Net, cfg PartitionConfig) (*PCN, error) {
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
	for i, c := range n.Conns {
		if plan.fanIn[c.To] > math.MaxInt64-c.FanIn {
			return layerPlan{}, fmt.Errorf("pcn: net %q conn %d overflows layer %d's int64 fan-in: %w", n.Name, i, c.To, place.ErrBadConfig)
		}
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
		if plan.fanIn[li] > math.MaxInt64/per {
			return layerPlan{}, fmt.Errorf("pcn: net %q layer %d: %d neurons per cluster × fan-in %d overflows the int64 synapse count: %w",
				n.Name, li, per, plan.fanIn[li], place.ErrBadConfig)
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

	// Expand connections in two passes straight into the final CSR arrays,
	// instead of materializing a (from, to, w) edge list and re-bucketing it:
	// pass one counts each source cluster's slots, pass two writes targets and
	// weights through per-cluster cursors, so only the 12 bytes/edge that
	// survive in the PCN are ever held (an edge list plus a bucket copy is 28
	// bytes/edge transient at the 1M-cluster scale). A Conn carries total
	// traffic T = To.Neurons × FanIn × rate(From); each target cluster receives
	// its neuron-proportional share, split across its source clusters. Within
	// a row, entries arrive in Conn order, then ascending target: the order
	// finalizeCSR's merge sums parallel entries in.
	counts := make([]int64, plan.total+1)
	var traffic []float64
	for i, c := range n.Conns {
		if traffic, err = plan.targetTraffic(n, p, i, traffic); err != nil {
			return nil, err
		}
		f0, fc := plan.first[c.From], plan.count[c.From]
		switch c.Pattern {
		case snn.Dense:
			for f := f0; f < f0+fc; f++ {
				counts[f+1] += int64(plan.count[c.To])
			}
		case snn.Local, snn.OneToOne:
			traverseSparse(c, plan, traffic, func(f, _ int, _ float64) { counts[f+1]++ })
		default:
			return nil, fmt.Errorf("pcn: unknown pattern %v in net %q", c.Pattern, n.Name)
		}
	}
	for i := 0; i < plan.total; i++ {
		counts[i+1] += counts[i]
	}
	outTo := make([]int32, counts[plan.total])
	outW := make([]float64, counts[plan.total])
	next := make([]int64, plan.total)
	copy(next, counts[:plan.total])
	var share []float64
	for i, c := range n.Conns {
		// Pass one checked every Conn: these calls cannot fail.
		traffic, _ = plan.targetTraffic(n, p, i, traffic)
		if c.Pattern != snn.Dense {
			traverseSparse(c, plan, traffic, func(f, t int, weight float64) {
				outTo[next[f]], outW[next[f]] = int32(t), weight
				next[f]++
			})
			continue
		}
		// A dense Conn is a complete bipartite block: each source row gets the
		// whole target range as one sequential run. Every weight is the single
		// product traffic[t]·share[f], so its bits do not depend on the order
		// the block is written in.
		f0, fc, t0 := plan.first[c.From], plan.count[c.From], plan.first[c.To]
		srcNeurons := float64(n.Layers[c.From].Neurons)
		share = share[:0]
		for f := f0; f < f0+fc; f++ {
			share = append(share, float64(p.Neurons[f])/srcNeurons)
		}
		tc := int64(len(traffic))
		for fi, s := range share {
			pos := next[f0+fi]
			next[f0+fi] += tc
			to, w := outTo[pos:pos+tc], outW[pos:pos+tc]
			for tj, tt := range traffic {
				to[tj], w[tj] = int32(t0+tj), tt*s
			}
		}
	}
	p.OutOff, p.OutTo, p.OutW = finalizeCSR(counts, outTo, outW, cfg.Workers)
	return p, nil
}

// targetTraffic returns, in buf's storage, the spike traffic into each target
// cluster of Conn i — Neurons × FanIn × rate(From) — or an error wrapping
// place.ErrBadConfig when one is not finite. Every edge weight of the Conn
// is at most its target's traffic, so this one check per target keeps
// infinities and NaNs out of the PCN.
func (plan layerPlan) targetTraffic(n *snn.Net, p *PCN, i int, buf []float64) ([]float64, error) {
	c := n.Conns[i]
	t0, tc := plan.first[c.To], plan.count[c.To]
	rate := n.RateOf(c.From)
	buf = buf[:0]
	for t := t0; t < t0+tc; t++ {
		tt := float64(p.Neurons[t]) * float64(c.FanIn) * rate
		if math.IsInf(tt, 0) || math.IsNaN(tt) {
			return nil, fmt.Errorf("pcn: net %q conn %d (layer %d -> %d) carries traffic %g into cluster %d: %w",
				n.Name, i, c.From, c.To, tt, t, place.ErrBadConfig)
		}
		buf = append(buf, tt)
	}
	return buf, nil
}

// traverseSparse streams the cluster-level edges of a Local or OneToOne
// Conn to emit, target-major: for each target cluster in ascending order,
// its source clusters ascending. traffic is the Conn's per-target traffic.
func traverseSparse(c snn.Conn, plan layerPlan, traffic []float64, emit func(f, t int, weight float64)) {
	fc, tc := plan.count[c.From], plan.count[c.To]
	f0, t0 := plan.first[c.From], plan.first[c.To]
	for tj, tt := range traffic {
		if c.Pattern == snn.OneToOne {
			emit(f0+proportional(tj, tc, fc), t0+tj, tt)
			continue
		}
		window := min(max(c.Window, 1), fc)
		start := min(max(proportional(tj, tc, fc)-(window-1)/2, 0), fc-window)
		share := tt / float64(window)
		for fi := start; fi < start+window; fi++ {
			emit(f0+fi, t0+tj, share)
		}
	}
}

// proportional maps index j of a tc-element sequence onto an fc-element
// sequence, preserving endpoints.
func proportional(j, tc, fc int) int {
	if tc <= 1 {
		return 0
	}
	return int(int64(j) * int64(fc-1) / int64(tc-1))
}
