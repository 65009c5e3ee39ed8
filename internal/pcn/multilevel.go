package pcn

import (
	"fmt"
	"math/bits"

	"snnmap/internal/obs"
	"snnmap/internal/snn"
)

// The multilevel coarsen–partition–uncoarsen partitioner (SNEAP-style; see
// PAPERS.md) for explicit graphs. Instead of cutting the neuron order greedily
// like Algorithm 1, it works on a fine-granularity cluster graph: heavy-edge
// matching contracts the graph level by level until it is small, a greedy
// growth pass partitions the coarsest graph under the hardware capacity
// constraints, and the assignment is projected back level by level with
// boundary-only KL/FM refinement of cluster-graph vertices (move gain =
// connectivity-to-target − connectivity-to-home). Every stage is
// deterministic at any Workers count; the final result is additionally
// guarded by a flat fallback, so its cut is never worse than the flat
// pipeline's. Layer-spec nets keep the paper's per-layer cut (Expand): after
// HSC + FD the multilevel grouping lost energy on most Table 3 workloads
// (EXPERIMENTS.md).

// The multilevel schedule is fixed, as in SNEAP, not tuned per call.
const (
	// coarsestSize stops coarsening once the graph has at most this many
	// vertices (floored at twice the minimum feasible part count so the
	// initial partitioning still has freedom).
	coarsestSize = 128
	// maxLevels bounds the coarsening hierarchy depth.
	maxLevels = 32
	// refinePasses bounds the refinement sweeps per level.
	refinePasses = 4
	// minGain is the smallest cut reduction worth a refinement move.
	minGain = 1e-9
	// grain is the granularity factor of the fine graph: fine clusters hold
	// about CON_npc/grain neurons, giving refinement grain× more freedom
	// than whole-cluster moves.
	grain = 8
	// matchRounds bounds the proposal/acceptance rounds per matching sweep.
	matchRounds = 8
)

// MultilevelOptions selects the multilevel partitioner
// (PartitionConfig.Multilevel); its schedule is fixed.
type MultilevelOptions struct {
	// Workers is the parallelism of matching and contraction. Results are
	// bit-identical at any value; 0 or 1 is sequential.
	Workers int
}

// takeMultilevel returns the multilevel worker count and turns cfg into the
// flat configuration of the internal calls: Multilevel cleared, and the
// per-cluster edge merge fanned with the multilevel worker pool unless the
// caller pinned a count (bit-identity-preserving).
func (cfg *PartitionConfig) takeMultilevel() int {
	var workers int
	if cfg.Multilevel != nil {
		workers = cfg.Multilevel.Workers
	}
	cfg.Multilevel = nil
	if cfg.Workers <= 0 {
		cfg.Workers = workers
	}
	return workers
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
// scheme: a fine Algorithm 1 partition at CON_npc/grain granularity supplies
// the fine cluster graph, multilevelGroup packs the fine clusters into
// full-capacity parts, and the composed neuron assignment is rebuilt into a
// PCN. If the multilevel cut is worse than the flat pipeline's, the flat
// result is returned instead (Stats.UsedFlat); its PCN is built only then,
// the comparison streams the flat cut (flatCut). SplitAtLayers shapes only
// the flat walks: the grouping merges across layers (see multilevelGroup).
func PartitionMultilevel(g *snn.Graph, cfg PartitionConfig) (*Result, MultilevelStats, error) {
	if err := validateGraph(g); err != nil {
		return nil, MultilevelStats{}, err
	}
	workers := cfg.takeMultilevel()
	sp := cfg.Obs.Span("partition.multilevel")
	defer func() { sp.End() }()

	flatOf, flatN, flatS, flatL, err := assignClusters(g, cfg)
	if err != nil {
		return nil, MultilevelStats{}, err
	}
	stats := MultilevelStats{CutFlat: flatCut(g, flatOf, flatN)}

	base, fineOf, err := fineLevel(g, cfg, workers)
	if err != nil {
		return nil, stats, err
	}
	stats.FineVertices = len(base.neurons)
	stats.FineEdges = int64(len(base.u.To)) / 2

	grp := multilevelGroup(base, int64(g.NumNeurons), cfg, workers)
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
	stats.UsedFlat = preferFlat(stats, ml.PCN.NumClusters, len(flatN))
	emitMultilevelStats(cfg.Obs, stats)
	if stats.UsedFlat {
		flat, err := rebuildFromAssignment(g, flatOf, flatN, flatS, flatL, cfg.Workers)
		return flat, stats, err
	}
	return ml, stats, nil
}

// flatCut is the total inter-cluster traffic of an Algorithm 1 assignment,
// bit-equal to TotalWeight of the PCN Partition would build from it, without
// building it. Each cluster is a contiguous neuron range, so its cross
// entries are gathered in (neuron, synapse) order — the arrival order of its
// finalizeCSR row — merged by the same mergeRow, and the merged weights are
// added in row order.
func flatCut(g *snn.Graph, clusterOf, neurons []int32) float64 {
	m := rowMerger{n: len(neurons)}
	var to []int32
	var w []float64
	var total float64
	u := 0
	for c, size := range neurons {
		to, w = to[:0], w[:0]
		for end := u + int(size); u < end; u++ {
			tos, ws := g.OutEdges(u)
			for k, v := range tos {
				if cv := clusterOf[v]; cv != int32(c) {
					to = append(to, cv)
					w = append(w, ws[k])
				}
			}
		}
		for _, x := range w[:m.mergeRow(to, w)] {
			total += x
		}
	}
	return total
}

// rebuildFromAssignment constructs a PCN from an explicit neuron→cluster
// assignment with known per-cluster occupancy: the multilevel result, or the
// flat fallback, bit-equal to flat Partition's PCN.
func rebuildFromAssignment(g *snn.Graph, clusterOf []int32, neurons []int32, synapses []int64, layers []int32, workers int) (*Result, error) {
	p := &PCN{
		NumClusters: len(neurons),
		Neurons:     neurons,
		Synapses:    synapses,
		Layer:       layers,
	}
	csrFromAssignment(p, g.OutOff, g.OutTo, g.OutW, clusterOf, workers)
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("pcn: multilevel partition invalid: %w", err)
	}
	return &Result{PCN: p, ClusterOf: clusterOf}, nil
}

// fineLevel is level 0 of the explicit-graph hierarchy: Algorithm 1's walk at
// CON_npc/grain neurons per cluster and the undirected graph of those fine
// clusters. The fine granularity never needs its own PCN (merged directed
// CSR): grouping works on the undirected cluster graph, built straight from
// the neuron edges through the fine assignment.
func fineLevel(g *snn.Graph, cfg PartitionConfig, workers int) (*gLevel, []int32, error) {
	cfg.Constraints.NeuronsPerCore = max(1, cfg.Constraints.NeuronsPerCore/grain)
	fineOf, fineN, fineS, fineL, err := assignClusters(g, cfg)
	if err != nil {
		return nil, nil, err
	}
	u := undirectedFromAssignment(g, fineOf, len(fineN), workers)
	return &gLevel{u: u, neurons: fineN, synapses: fineS, layer: fineL}, fineOf, nil
}

// BenchKernel is one separately timeable kernel of this package.
type BenchKernel struct {
	Name string
	Run  func()
}

// AggregateKernels returns the three edge-aggregation sites PartitionMultilevel
// can run on g, each as a closure over inputs prepared here, so the benchmark
// case table (expt.BenchCases, pcn-aggregate/*) times the kernels: flat-csr is
// csrFromAssignment at CON_npc, which runs only when the flat fallback is
// returned, fine-undirected is undirectedFromAssignment at the fine
// granularity, contract is the first coarsening step.
func AggregateKernels(g *snn.Graph, cfg PartitionConfig) ([]BenchKernel, error) {
	if err := validateGraph(g); err != nil {
		return nil, err
	}
	workers := cfg.takeMultilevel()
	flatOf, flatN, _, _, err := assignClusters(g, cfg)
	if err != nil {
		return nil, err
	}
	base, fineOf, err := fineLevel(g, cfg, workers)
	if err != nil {
		return nil, err
	}
	match := heavyEdgeMatch(base.u, base.neurons, base.synapses, cfg.Constraints.NeuronsPerCore, 0, matchRounds, workers, nil)
	return []BenchKernel{
		{"flat-csr", func() {
			csrFromAssignment(&PCN{NumClusters: len(flatN)}, g.OutOff, g.OutTo, g.OutW, flatOf, cfg.Workers)
		}},
		{"fine-undirected", func() { undirectedFromAssignment(g, fineOf, len(base.neurons), workers) }},
		{"contract", func() { contract(base, match, workers, nil) }},
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
func preferFlat(stats MultilevelStats, mlClusters, flatClusters int) bool {
	if stats.CutMultilevel > stats.CutFlat {
		return true
	}
	return stats.CutMultilevel == stats.CutFlat && mlClusters >= flatClusters
}

// multilevelGroup packs the vertices of a fine cluster graph into parts that
// each fit the hardware constraints: coarsen by heavy-edge matching,
// partition the coarsest graph greedily, project back with boundary
// refinement at every level, then compact part indices by first appearance.
// total is the neuron count the fine graph represents.
func multilevelGroup(base *gLevel, total int64, cfg PartitionConfig, workers int) grouping {
	npc := cfg.Constraints.NeuronsPerCore
	var synCap int64
	if cfg.EnforceSynapses {
		synCap = int64(cfg.Constraints.SynapsesPerCore)
	}
	// The cluster-level grouping ignores SplitAtLayers and merges freely
	// across layer boundaries: feed-forward nets have no intra-layer cluster
	// edges, so honoring it would leave matching and growth nothing to work
	// with — and internalizing cross-layer traffic is exactly where the
	// multilevel cut reduction comes from. Mixed parts are tagged layer -1.
	// Nothing restores layer purity afterwards: the flat fallback compares
	// cuts only, so a caller that needs layer-pure clusters uses flat
	// Partition.

	// Keep at least two coarse vertices per feasible part so the initial
	// partitioning is not forced into a fixed grouping.
	minParts := int((total + int64(npc) - 1) / int64(npc))
	target := coarsestSize
	if t := 2 * minParts; t > target {
		target = t
	}

	coarsenSp := cfg.Obs.Span("multilevel.coarsen")
	// One arena serves the whole hierarchy: levels shrink geometrically, so
	// the level-0 scratch is grabbed once and every later level reslices it.
	ar := &levelArena{}
	levels := []*gLevel{base}
	lv := base
	for len(levels) <= maxLevels && len(lv.neurons) > target {
		match := heavyEdgeMatch(lv.u, lv.neurons, lv.synapses, npc, synCap, matchRounds, workers, ar)
		pairs := 0
		for v, m := range match {
			if int(m) > v {
				pairs++
			}
		}
		// Stalled (capacity-bound) matchings shrink the graph too
		// slowly to be worth another level.
		if pairs*32 < len(match) {
			break
		}
		coarse, _ := contract(lv, match, workers, ar)
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
	partOf, parts := greedyPartition(lv, npc, synCap)
	initSp.End(obs.KV{K: "parts", V: float64(parts)})
	partN := make([]int32, parts)
	partS := make([]int64, parts)
	for v, p := range partOf {
		partN[p] += lv.neurons[v]
		partS[p] += lv.synapses[v]
	}

	uncoarsenSp := cfg.Obs.Span("multilevel.uncoarsen")
	moves := refineLevel(lv, partOf, partN, partS, npc, synCap, ar)
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
		moves = refineLevel(finer, partOf, partN, partS, npc, synCap, ar)
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
func greedyPartition(lv *gLevel, npc int, synCap int64) ([]int32, int) {
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
	fill := func(pN int32, pS int64) int32 {
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
		for {
			partOf[v] = part
			assigned++
			pN += lv.neurons[v]
			pS += lv.synapses[v]
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
				if conn[t] > bestConn || (conn[t] == bestConn && (best < 0 || t < best)) {
					best = t
					bestConn = conn[t]
				}
			}
			frontier = live
			if best < 0 {
				best = fill(pN, pS)
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
// the capacity constraints. Candidate parts are examined in
// neighbor order with strict-improvement ties, so the outcome does not
// depend on map iteration order or worker count. Occupancy arrays are
// mutated in place; the returned count is the number of moves applied. ar
// recycles the scratch across levels (nil allocates fresh): the part count
// is constant through the uncoarsening walk, and the candidate-list reset
// leaves gain and seen all-zero between calls.
//
// Pass 0 examines every vertex; later passes examine only the vertices whose
// decision can have changed since they were last examined, and reproduce the
// full scan's moves exactly. A vertex that stayed put keeps staying until its
// own or a neighbour's part changes (it is marked when that happens) or
// until a part that refused it on capacity loses occupancy (it waits on that
// part's list and is marked when the part loses a vertex); a gain in
// occupancy can only add refusals. Marks are swept in ascending order: one
// ahead of the vertex being examined is taken this pass, one at or behind it
// (the mover's own, or a lower bit of the current word) the next, where the
// full scan would next reach that vertex.
func refineLevel(lv *gLevel, partOf []int32, partN []int32, partS []int64, npc int, synCap int64, ar *levelArena) int64 {
	if ar == nil {
		ar = &levelArena{}
	}
	n := len(lv.neurons)
	// Dense gain scratch indexed by part: gain[d] accumulates v's edge weight
	// into part d, seen[d] keeps the candidate list duplicate-free, and both
	// are reset via cand after each vertex — no per-vertex map traffic.
	gain := grabF64(&ar.gain, len(partN))
	seen := grabBool(&ar.seen, len(partN))
	dirty := grabU64(&ar.dirty, (n+63)/64)
	for i := range dirty {
		dirty[i] = ^uint64(0)
	}
	if r := n & 63; r != 0 {
		dirty[len(dirty)-1] = 1<<r - 1
	}
	// waitHead[d] heads part d's list of the vertices it refused, linked
	// through waiters; a woken list is dropped, its entries stay garbage
	// until the next level.
	waitHead := grabI32(&ar.waitHead, len(partN))
	for d := range waitHead {
		waitHead[d] = -1
	}
	waiters := ar.waiters[:0]
	cand := make([]int32, 0, 16)
	refused := make([]int32, 0, 16)
	var moves int64
	for pass := 0; pass < refinePasses; pass++ {
		var passMoves int64
		for wi := range dirty {
			ahead := ^uint64(0)
			for {
				word := dirty[wi] & ahead
				if word == 0 {
					break
				}
				b := bits.TrailingZeros64(word)
				dirty[wi] &^= 1 << b
				ahead = ^uint64(0) << b << 1
				vi := wi<<6 | b
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
				bestGain := minGain
				refused = refused[:0]
				for _, d := range cand {
					if d == cv {
						continue
					}
					g := gain[d] - internal
					if g <= bestGain {
						continue
					}
					if int(partN[d])+int(lv.neurons[v]) > npc || synCap > 0 && partS[d]+lv.synapses[v] > synCap {
						refused = append(refused, d)
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
					for _, d := range refused {
						waiters = append(waiters, waiter{v: v, next: waitHead[d]})
						waitHead[d] = int32(len(waiters) - 1)
					}
					continue
				}
				partN[cv] -= lv.neurons[v]
				partS[cv] -= lv.synapses[v]
				partN[best] += lv.neurons[v]
				partS[best] += lv.synapses[v]
				partOf[v] = best
				passMoves++
				dirty[wi] |= 1 << b
				for _, t := range tos {
					dirty[t>>6] |= 1 << (uint32(t) & 63)
				}
				for i := waitHead[cv]; i >= 0; i = waiters[i].next {
					t := waiters[i].v
					dirty[t>>6] |= 1 << (uint32(t) & 63)
				}
				waitHead[cv] = -1
			}
		}
		moves += passMoves
		if passMoves == 0 {
			break
		}
	}
	ar.waiters = waiters
	return moves
}
