package pcn

import (
	"fmt"

	"snnmap/internal/obs"
	"snnmap/internal/snn"
)

// The multilevel coarsen–partition–uncoarsen partitioner (SNEAP-style; see
// PAPERS.md). Instead of cutting the neuron order greedily like Algorithm 1,
// it works on a fine-granularity cluster graph: heavy-edge matching contracts
// the graph level by level until it is small, a greedy growth pass partitions
// the coarsest graph under the hardware capacity constraints, and the
// assignment is projected back level by level with boundary-only KL/FM
// refinement — the same gain accounting as RefinePartition (move gain =
// connectivity-to-target − connectivity-to-home), applied to cluster-graph
// vertices instead of single neurons. Every stage is deterministic at any
// Workers count; the final result is additionally guarded by a flat
// fallback, so its cut is never worse than the flat pipeline's.

// MultilevelOptions tunes the multilevel partitioner. The zero value of any
// field selects its default.
type MultilevelOptions struct {
	// CoarsestSize stops coarsening once the graph has at most this many
	// vertices (floored at twice the minimum feasible part count so the
	// initial partitioning still has freedom). Default 128.
	CoarsestSize int
	// MaxLevels bounds the coarsening hierarchy depth. Default 32.
	MaxLevels int
	// Workers is the parallelism of matching and contraction. Results are
	// bit-identical at any value; 0 or 1 is sequential.
	Workers int
	// RefinePasses bounds the boundary-refinement sweeps per level.
	// Default 4.
	RefinePasses int
	// MinGain is the smallest cut reduction worth a refinement move.
	// Default 1e-9.
	MinGain float64
	// Grain is the granularity factor of the fine graph: fine clusters hold
	// about CON_npc/Grain neurons, giving refinement Grain× more freedom
	// than whole-cluster moves. Default 8.
	Grain int
	// MaxFineEdges caps the fine graph size for the analytic (layer-spec)
	// path: the effective grain is halved until the estimated fine edge
	// count fits, so billion-synapse nets do not materialize huge cluster
	// graphs. Default 4Mi edges.
	MaxFineEdges int64
	// MatchRounds bounds the proposal/acceptance rounds per matching sweep.
	// Default 8.
	MatchRounds int
}

func (o MultilevelOptions) withDefaults() MultilevelOptions {
	if o.CoarsestSize <= 0 {
		o.CoarsestSize = 128
	}
	if o.MaxLevels <= 0 {
		o.MaxLevels = 32
	}
	if o.RefinePasses <= 0 {
		o.RefinePasses = 4
	}
	if o.MinGain <= 0 {
		o.MinGain = 1e-9
	}
	if o.Grain <= 0 {
		o.Grain = 8
	}
	if o.MaxFineEdges <= 0 {
		o.MaxFineEdges = 4 << 20
	}
	if o.MatchRounds <= 0 {
		o.MatchRounds = 8
	}
	return o
}

// takeMultilevel resolves the multilevel options (nil selects the defaults)
// and turns cfg into the flat configuration of the internal calls: Multilevel
// cleared, and the per-cluster edge merge fanned with the multilevel worker
// pool unless the caller pinned a count (bit-identity-preserving).
func (cfg *PartitionConfig) takeMultilevel() MultilevelOptions {
	var o MultilevelOptions
	if cfg.Multilevel != nil {
		o = *cfg.Multilevel
	}
	o = o.withDefaults()
	cfg.Multilevel = nil
	if cfg.Workers <= 0 {
		cfg.Workers = o.Workers
	}
	return o
}

// DefaultMultilevel returns the default multilevel configuration.
func DefaultMultilevel() *MultilevelOptions {
	o := MultilevelOptions{}.withDefaults()
	return &o
}

// MultilevelStats reports what the multilevel partitioner did.
type MultilevelStats struct {
	// Levels is the number of graphs in the coarsening hierarchy (1 means
	// no contraction happened).
	Levels int
	// FineVertices and FineEdges describe the fine cluster graph the
	// hierarchy starts from.
	FineVertices int
	FineEdges    int64
	// CoarsestVertices is the size of the graph the initial partitioning
	// ran on.
	CoarsestVertices int
	// Grain is the effective granularity after the MaxFineEdges adaptation.
	Grain int
	// Moves counts refinement moves across all levels.
	Moves int64
	// CutFlat and CutMultilevel are the total inter-cluster traffic of the
	// flat baseline and the multilevel result.
	CutFlat, CutMultilevel float64
	// UsedFlat is true when the flat result was returned because the
	// multilevel cut came out worse (the quality guarantee).
	UsedFlat bool
}

// grouping is the outcome of multilevelGroup: a dense part assignment of the
// fine cluster graph plus per-part occupancy.
type grouping struct {
	partOf   []int32
	neurons  []int32
	synapses []int64
	layer    []int32
	levels   int
	coarsest int
	moves    int64
}

// PartitionMultilevel partitions an explicit SNN graph with the multilevel
// scheme: a fine Algorithm 1 partition at CON_npc/Grain granularity supplies
// the fine cluster graph, multilevelGroup packs the fine clusters into
// full-capacity parts, and the composed neuron assignment is rebuilt into a
// PCN. If the multilevel cut is worse than the flat pipeline's, the flat
// result is returned instead (Stats.UsedFlat).
func PartitionMultilevel(g *snn.Graph, cfg PartitionConfig) (*Result, MultilevelStats, error) {
	o := cfg.takeMultilevel()
	sp := cfg.Obs.Span("partition.multilevel")
	defer func() { sp.End() }()

	flat, err := Partition(g, cfg)
	if err != nil {
		return nil, MultilevelStats{}, err
	}
	stats := MultilevelStats{Grain: o.Grain, CutFlat: flat.PCN.TotalWeight()}

	base, fineOf, err := fineLevel(g, cfg, o)
	if err != nil {
		return nil, stats, err
	}
	stats.FineVertices = len(base.neurons)
	stats.FineEdges = int64(len(base.u.To)) / 2

	grp := multilevelGroup(base, int64(g.NumNeurons), cfg, o)
	stats.Levels = grp.levels
	stats.CoarsestVertices = grp.coarsest
	stats.Moves = grp.moves

	clusterOf := make([]int32, g.NumNeurons)
	for i := range clusterOf {
		clusterOf[i] = grp.partOf[fineOf[i]]
	}
	ml, err := rebuildFromAssignment(g, clusterOf, grp.neurons, grp.synapses, grp.layer, cfg.Workers)
	if err != nil {
		return nil, stats, err
	}
	stats.CutMultilevel = ml.PCN.TotalWeight()
	if preferFlat(stats, ml.PCN, flat.PCN) {
		stats.UsedFlat = true
	}
	emitMultilevelStats(cfg.Obs, stats)
	if stats.UsedFlat {
		return flat, stats, nil
	}
	return ml, stats, nil
}

// fineLevel is level 0 of the explicit-graph hierarchy: Algorithm 1's walk at
// CON_npc/Grain neurons per cluster and the undirected graph of those fine
// clusters. The fine granularity never needs its own PCN (merged directed
// CSR): grouping works on the undirected cluster graph, built straight from
// the neuron edges through the fine assignment.
func fineLevel(g *snn.Graph, cfg PartitionConfig, o MultilevelOptions) (*gLevel, []int32, error) {
	cfg.Constraints.NeuronsPerCore = max(1, cfg.Constraints.NeuronsPerCore/o.Grain)
	fineOf, fineN, fineS, fineL, err := assignClusters(g, cfg)
	if err != nil {
		return nil, nil, err
	}
	u := undirectedFromAssignment(g, fineOf, len(fineN), o.Workers)
	return &gLevel{u: u, neurons: fineN, synapses: fineS, layer: fineL}, fineOf, nil
}

// BenchKernel is one separately timeable kernel of this package.
type BenchKernel struct {
	Name string
	Run  func()
}

// AggregateKernels returns the three edge-aggregation sites PartitionMultilevel
// runs on g, each as a closure over inputs prepared here, so the benchmark
// case table (expt.BenchCases, pcn-aggregate/*) times the kernels: flat-csr is
// csrFromAssignment at CON_npc, fine-undirected is undirectedFromAssignment at
// the fine granularity, contract is the first coarsening step.
func AggregateKernels(g *snn.Graph, cfg PartitionConfig) ([]BenchKernel, error) {
	o := cfg.takeMultilevel()
	flatOf, flatN, _, _, err := assignClusters(g, cfg)
	if err != nil {
		return nil, err
	}
	base, fineOf, err := fineLevel(g, cfg, o)
	if err != nil {
		return nil, err
	}
	match := heavyEdgeMatch(base.u, base.neurons, base.synapses, base.layer, cfg.Constraints.NeuronsPerCore, 0, false, o.MatchRounds, o.Workers, nil)
	return []BenchKernel{
		{"flat-csr", func() {
			csrFromAssignment(&PCN{NumClusters: len(flatN)}, g.OutOff, g.OutTo, g.OutW, flatOf, cfg.Workers)
		}},
		{"fine-undirected", func() { undirectedFromAssignment(g, fineOf, len(base.neurons), o.Workers) }},
		{"contract", func() { contract(base, match, o.Workers, nil) }},
	}, nil
}

// emitMultilevelStats publishes the run-summary counters of one multilevel
// partitioning. Values come from MultilevelStats, which is computed the same
// way whether or not telemetry is attached.
func emitMultilevelStats(o *obs.Observer, s MultilevelStats) {
	if !o.Enabled() {
		return
	}
	used := 0.0
	if s.UsedFlat {
		used = 1
	}
	o.Counter("multilevel.cut",
		obs.KV{K: "flat", V: s.CutFlat},
		obs.KV{K: "multilevel", V: s.CutMultilevel},
		obs.KV{K: "used_flat", V: used},
		obs.KV{K: "levels", V: float64(s.Levels)},
		obs.KV{K: "coarsest_vertices", V: float64(s.CoarsestVertices)},
		obs.KV{K: "moves", V: float64(s.Moves)})
}

// undirectedFromAssignment builds the symmetrized cluster graph of a neuron
// assignment directly from the neuron edges, skipping the merged cluster CSR
// a full Partition would build only to have Undirected re-derive it. Every
// cross synapse lands in both endpoint rows in the same (neuron, synapse)
// order, so finalizeCSR sums W(i,j) and W(j,i) identically: the view is
// bitwise symmetric, and bit-identical at any worker count.
func undirectedFromAssignment(g *snn.Graph, clusterOf []int32, n, workers int) *Undirected {
	deg := make([]int64, n+1)
	for u := 0; u < g.NumNeurons; u++ {
		cu := clusterOf[u]
		tos, _ := g.OutEdges(u)
		for _, v := range tos {
			if cv := clusterOf[v]; cv != cu {
				deg[cu+1]++
				deg[cv+1]++
			}
		}
	}
	for i := 0; i < n; i++ {
		deg[i+1] += deg[i]
	}
	to := make([]int32, deg[n])
	w := make([]float64, deg[n])
	next := make([]int64, n)
	copy(next, deg[:n])
	for u := 0; u < g.NumNeurons; u++ {
		cu := clusterOf[u]
		tos, ws := g.OutEdges(u)
		for k, v := range tos {
			cv := clusterOf[v]
			if cv == cu {
				continue
			}
			pos := next[cu]
			next[cu]++
			to[pos], w[pos] = cv, ws[k]
			pos = next[cv]
			next[cv]++
			to[pos], w[pos] = cu, ws[k]
		}
	}
	off, to, w := finalizeCSR(deg, to, w, workers)
	return &Undirected{Off: off, To: to, W: w}
}

// preferFlat decides the fallback: keep the flat result unless multilevel
// strictly improved the cut, or matched it with fewer clusters (a smaller
// mesh downstream). This makes "multilevel cut ≤ flat cut" a guarantee
// rather than a tendency.
func preferFlat(stats MultilevelStats, ml, flat *PCN) bool {
	if stats.CutMultilevel > stats.CutFlat {
		return true
	}
	return stats.CutMultilevel == stats.CutFlat && ml.NumClusters >= flat.NumClusters
}

// ExpandMultilevel partitions a layer-spec Net with the multilevel scheme
// without materializing neurons: the analytic expander runs at a finer
// granularity (per-layer cluster sizes divided by the largest divisor ≤
// Grain, so fine cluster boundaries stay aligned with flat ones), the fine
// cluster graph is grouped, and the fine PCN is contracted through the part
// assignment. The same flat-fallback guarantee applies.
func ExpandMultilevel(n *snn.Net, cfg PartitionConfig) (*PCN, MultilevelStats, error) {
	o := cfg.takeMultilevel()
	sp := cfg.Obs.Span("partition.multilevel")
	defer func() { sp.End() }()

	flat, err := Expand(n, cfg)
	if err != nil {
		return nil, MultilevelStats{}, err
	}
	stats := MultilevelStats{CutFlat: flat.TotalWeight()}

	// Adapt the grain so the fine graph stays bounded: Dense connections
	// grow quadratically with the per-layer cluster count, so billion-neuron
	// nets may need a coarser fine graph than the configured Grain.
	grain := o.Grain
	for grain > 1 {
		plan, err := planLayers(n, cfg, grain)
		if err != nil {
			return nil, stats, err
		}
		if estimateEdges(n, plan) <= o.MaxFineEdges {
			break
		}
		grain /= 2
	}
	stats.Grain = grain

	fine := flat
	if grain > 1 {
		fine, err = expandWithGrain(n, cfg, grain)
		if err != nil {
			return nil, stats, err
		}
	}
	base := &gLevel{
		u:        fine.Undirected(),
		neurons:  fine.Neurons,
		synapses: fine.Synapses,
		layer:    fine.Layer,
	}
	stats.FineVertices = fine.NumClusters
	stats.FineEdges = int64(len(base.u.To)) / 2

	grp := multilevelGroup(base, fine.TotalNeurons(), cfg, o)
	stats.Levels = grp.levels
	stats.CoarsestVertices = grp.coarsest
	stats.Moves = grp.moves

	ml := contractPCN(fine, grp, cfg.Workers)
	stats.CutMultilevel = ml.TotalWeight()
	if preferFlat(stats, ml, flat) {
		stats.UsedFlat = true
	}
	emitMultilevelStats(cfg.Obs, stats)
	if stats.UsedFlat {
		return flat, stats, nil
	}
	if err := ml.Validate(); err != nil {
		return nil, stats, fmt.Errorf("pcn: multilevel result invalid: %w", err)
	}
	return ml, stats, nil
}

// contractPCN maps a fine PCN's directed edges through a part assignment,
// producing the final cluster-level PCN. Edges that become internal to a
// part move into InternalTraffic.
func contractPCN(fine *PCN, grp grouping, workers int) *PCN {
	p := &PCN{
		Name:            fine.Name,
		NumClusters:     len(grp.neurons),
		Neurons:         grp.neurons,
		Synapses:        grp.synapses,
		Layer:           grp.layer,
		InternalTraffic: fine.InternalTraffic,
	}
	csrFromAssignment(p, fine.OutOff, fine.OutTo, fine.OutW, grp.partOf, workers)
	return p
}

// multilevelGroup packs the vertices of a fine cluster graph into parts that
// each fit the hardware constraints: coarsen by heavy-edge matching,
// partition the coarsest graph greedily, project back with boundary
// refinement at every level, then compact part indices by first appearance.
// total is the neuron count the fine graph represents.
func multilevelGroup(base *gLevel, total int64, cfg PartitionConfig, o MultilevelOptions) grouping {
	npc := cfg.Constraints.NeuronsPerCore
	var synCap int64
	if cfg.EnforceSynapses {
		synCap = int64(cfg.Constraints.SynapsesPerCore)
	}
	// The cluster-level grouping merges freely across layer boundaries:
	// feed-forward nets have no intra-layer cluster edges, so honoring
	// SplitAtLayers here would leave matching and growth nothing to work
	// with — and internalizing cross-layer traffic is exactly where the
	// multilevel cut reduction comes from. Mixed parts are tagged layer -1;
	// the flat fallback still guards callers that need layer purity.
	cfg.SplitAtLayers = false

	// Keep at least two coarse vertices per feasible part so the initial
	// partitioning is not forced into a fixed grouping.
	minParts := int((total + int64(npc) - 1) / int64(npc))
	target := o.CoarsestSize
	if t := 2 * minParts; t > target {
		target = t
	}

	coarsenSp := cfg.Obs.Span("multilevel.coarsen")
	// One arena serves the whole hierarchy: levels shrink geometrically, so
	// the level-0 scratch is grabbed once and every later level reslices it.
	ar := &levelArena{}
	levels := []*gLevel{base}
	lv := base
	for len(levels) <= o.MaxLevels && len(lv.neurons) > target {
		match := heavyEdgeMatch(lv.u, lv.neurons, lv.synapses, lv.layer, npc, synCap, cfg.SplitAtLayers, o.MatchRounds, o.Workers, ar)
		pairs := 0
		for v, m := range match {
			if int(m) > v {
				pairs++
			}
		}
		// Stalled matchings (capacity- or layer-bound) shrink the graph too
		// slowly to be worth another level.
		if pairs*32 < len(match) {
			break
		}
		coarse, _ := contract(lv, match, o.Workers, ar)
		levels = append(levels, coarse)
		if cfg.Obs.Enabled() {
			cfg.Obs.Counter("multilevel.level",
				obs.KV{K: "level", V: float64(len(levels) - 1)},
				obs.KV{K: "vertices", V: float64(len(coarse.neurons))},
				obs.KV{K: "edges", V: float64(len(coarse.u.To) / 2)},
				obs.KV{K: "matched_pairs", V: float64(pairs)})
		}
		lv = coarse
	}
	coarsenSp.End(obs.KV{K: "levels", V: float64(len(levels))}, obs.KV{K: "coarsest_vertices", V: float64(len(lv.neurons))})

	grp := grouping{levels: len(levels), coarsest: len(lv.neurons)}

	initSp := cfg.Obs.Span("multilevel.initial")
	partOf, parts := greedyPartition(lv, cfg, npc, synCap)
	initSp.End(obs.KV{K: "parts", V: float64(parts)})
	partN := make([]int32, parts)
	partS := make([]int64, parts)
	partLayer := make([]int32, parts)
	for p := range partLayer {
		partLayer[p] = -2 // unset sentinel
	}
	for v := range partOf {
		p := partOf[v]
		partN[p] += lv.neurons[v]
		partS[p] += lv.synapses[v]
		if partLayer[p] == -2 {
			partLayer[p] = lv.layer[v]
		} else if partLayer[p] != lv.layer[v] {
			partLayer[p] = -1
		}
	}
	partVerts := make([]int32, parts)
	for _, p := range partOf {
		partVerts[p]++
	}

	uncoarsenSp := cfg.Obs.Span("multilevel.uncoarsen")
	moves := refineLevel(lv, partOf, partN, partS, partLayer, partVerts, cfg, o, npc, synCap, ar)
	grp.moves += moves
	if cfg.Obs.Enabled() {
		cfg.Obs.Counter("multilevel.refine", obs.KV{K: "level", V: float64(len(levels) - 1)}, obs.KV{K: "moves", V: float64(moves)})
	}
	for li := len(levels) - 2; li >= 0; li-- {
		finer := levels[li]
		fp := make([]int32, len(finer.neurons))
		for v := range fp {
			fp[v] = partOf[finer.coarseOf[v]]
		}
		partOf = fp
		for p := range partVerts {
			partVerts[p] = 0
		}
		for _, p := range partOf {
			partVerts[p]++
		}
		moves = refineLevel(finer, partOf, partN, partS, partLayer, partVerts, cfg, o, npc, synCap, ar)
		grp.moves += moves
		if cfg.Obs.Enabled() {
			cfg.Obs.Counter("multilevel.refine", obs.KV{K: "level", V: float64(li)}, obs.KV{K: "moves", V: float64(moves)})
		}
	}
	uncoarsenSp.End(obs.KV{K: "moves", V: float64(grp.moves)})

	// Compact part indices by first appearance (refinement may have emptied
	// parts) and recompute occupancy on the fine graph.
	remap := make([]int32, parts)
	for p := range remap {
		remap[p] = -1
	}
	var dense int32
	for v := range partOf {
		p := partOf[v]
		if remap[p] < 0 {
			remap[p] = dense
			dense++
		}
		partOf[v] = remap[p]
	}
	grp.partOf = partOf
	grp.neurons = make([]int32, dense)
	grp.synapses = make([]int64, dense)
	grp.layer = make([]int32, dense)
	for p := range grp.layer {
		grp.layer[p] = -2
	}
	for v, p := range partOf {
		grp.neurons[p] += base.neurons[v]
		grp.synapses[p] += base.synapses[v]
		if grp.layer[p] == -2 {
			grp.layer[p] = base.layer[v]
		} else if grp.layer[p] != base.layer[v] {
			grp.layer[p] = -1
		}
	}
	return grp
}

// greedyPartition assigns every vertex of the coarsest graph to a part by
// greedy growth: seed the part with the lowest unassigned vertex, then
// repeatedly admit the frontier vertex with the strongest connectivity to
// the part that still fits (ties toward the smaller index), until nothing
// fits. A seed is always admitted, mirroring Algorithm 1's empty-cluster
// rule. The scan order and tie-breaks make the result deterministic.
func greedyPartition(lv *gLevel, cfg PartitionConfig, npc int, synCap int64) ([]int32, int) {
	n := len(lv.neurons)
	partOf := make([]int32, n)
	for v := range partOf {
		partOf[v] = -1
	}
	conn := make([]float64, n)
	inFrontier := make([]bool, n)
	frontier := make([]int32, 0, 64)

	part := int32(0)
	assigned := 0
	seed := 0
	// fill locates zero-connectivity admissions: the lowest unassigned
	// vertex that still fits the part, so disconnected components pack into
	// full parts (Algorithm 1's contiguous walk) instead of leaking
	// singleton parts.
	fill := func(pN int32, pS int64, pLayer int32) int32 {
		for c := seed; c < n; c++ {
			if partOf[c] >= 0 {
				continue
			}
			if int(pN)+int(lv.neurons[c]) > npc {
				continue
			}
			if synCap > 0 && pS+lv.synapses[c] > synCap {
				continue
			}
			if cfg.SplitAtLayers && lv.layer[c] >= 0 && pLayer >= 0 && lv.layer[c] != pLayer {
				continue
			}
			return int32(c)
		}
		return -1
	}
	for assigned < n {
		for seed < n && partOf[seed] >= 0 {
			seed++
		}
		v := int32(seed)
		var pN int32
		var pS int64
		pLayer := int32(-1)
		for {
			partOf[v] = part
			assigned++
			pN += lv.neurons[v]
			pS += lv.synapses[v]
			if pLayer < 0 {
				pLayer = lv.layer[v]
			}
			tos, ws := lv.u.Neighbors(int(v))
			for k, t := range tos {
				if partOf[t] >= 0 {
					continue
				}
				conn[t] += ws[k]
				if !inFrontier[t] {
					inFrontier[t] = true
					frontier = append(frontier, t)
				}
			}
			// Next admission: best-connected fitting frontier vertex.
			best := int32(-1)
			bestConn := -1.0
			live := frontier[:0]
			for _, t := range frontier {
				if partOf[t] >= 0 {
					inFrontier[t] = false
					continue
				}
				live = append(live, t)
				if int(pN)+int(lv.neurons[t]) > npc {
					continue
				}
				if synCap > 0 && pS+lv.synapses[t] > synCap {
					continue
				}
				if cfg.SplitAtLayers && lv.layer[t] >= 0 && pLayer >= 0 && lv.layer[t] != pLayer {
					continue
				}
				if conn[t] > bestConn || (conn[t] == bestConn && (best < 0 || t < best)) {
					best = t
					bestConn = conn[t]
				}
			}
			frontier = live
			if best < 0 {
				best = fill(pN, pS, pLayer)
			}
			if best < 0 {
				break
			}
			v = best
		}
		for _, t := range frontier {
			conn[t] = 0
			inFrontier[t] = false
		}
		frontier = frontier[:0]
		part++
	}
	return partOf, int(part)
}

// refineLevel runs boundary-only FM refinement of a part assignment on one
// hierarchy level: each pass walks the vertices in index order, skips
// interior vertices with a cheap neighbor scan, and moves a boundary vertex
// to the adjacent part with the largest positive cut gain that still fits
// the capacity and layer constraints. Candidate parts are examined in
// neighbor order with strict-improvement ties, so the outcome does not
// depend on map iteration order or worker count. Occupancy arrays are
// mutated in place; the returned count is the number of moves applied. ar
// recycles the gain/seen scratch across levels (nil allocates fresh): the
// part count is constant through the uncoarsening walk, and the
// candidate-list reset leaves both buffers all-zero between calls.
func refineLevel(lv *gLevel, partOf []int32, partN []int32, partS []int64, partLayer []int32, partVerts []int32, cfg PartitionConfig, o MultilevelOptions, npc int, synCap int64, ar *levelArena) int64 {
	if ar == nil {
		ar = &levelArena{}
	}
	n := len(lv.neurons)
	// Dense gain scratch indexed by part: gain[d] accumulates v's edge weight
	// into part d, seen[d] keeps the candidate list duplicate-free, and both
	// are reset via cand after each vertex — no per-vertex map traffic.
	gain := grabF64(&ar.gain, len(partN))
	seen := grabBool(&ar.seen, len(partN))
	cand := make([]int32, 0, 16)
	var moves int64
	for pass := 0; pass < o.RefinePasses; pass++ {
		var passMoves int64
		for vi := 0; vi < n; vi++ {
			v := int32(vi)
			cv := partOf[v]
			tos, ws := lv.u.Neighbors(vi)
			boundary := false
			for _, t := range tos {
				if partOf[t] != cv {
					boundary = true
					break
				}
			}
			if !boundary {
				continue
			}
			cand = cand[:0]
			for k, t := range tos {
				d := partOf[t]
				if !seen[d] {
					seen[d] = true
					cand = append(cand, d)
				}
				gain[d] += ws[k]
			}
			internal := gain[cv]
			best := cv
			bestGain := o.MinGain
			for _, d := range cand {
				if d == cv {
					continue
				}
				g := gain[d] - internal
				if g <= bestGain {
					continue
				}
				if int(partN[d])+int(lv.neurons[v]) > npc {
					continue
				}
				if synCap > 0 && partS[d]+lv.synapses[v] > synCap {
					continue
				}
				if cfg.SplitAtLayers && lv.layer[v] >= 0 && partLayer[d] >= 0 && partLayer[d] != lv.layer[v] {
					continue
				}
				best = d
				bestGain = g
			}
			for _, d := range cand {
				gain[d] = 0
				seen[d] = false
			}
			if best == cv {
				continue
			}
			partN[cv] -= lv.neurons[v]
			partS[cv] -= lv.synapses[v]
			partVerts[cv]--
			partN[best] += lv.neurons[v]
			partS[best] += lv.synapses[v]
			partVerts[best]++
			partOf[v] = best
			passMoves++
		}
		moves += passMoves
		if passMoves == 0 {
			break
		}
	}
	return moves
}
