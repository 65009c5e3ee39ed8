package pcn

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"snnmap/internal/hw"
	"snnmap/internal/snn"
)

// samePCN compares the observable fields of two PCNs bit-for-bit (the lazy
// undirected cache is excluded: it is derived state).
func samePCN(t *testing.T, label string, a, b *PCN) {
	t.Helper()
	if a.Name != b.Name || a.NumClusters != b.NumClusters {
		t.Fatalf("%s: cluster structure differs: %d vs %d", label, a.NumClusters, b.NumClusters)
	}
	if !reflect.DeepEqual(a.Neurons, b.Neurons) || !reflect.DeepEqual(a.Synapses, b.Synapses) || !reflect.DeepEqual(a.Layer, b.Layer) {
		t.Fatalf("%s: per-cluster occupancy differs", label)
	}
	if !reflect.DeepEqual(a.OutOff, b.OutOff) || !reflect.DeepEqual(a.OutTo, b.OutTo) || !reflect.DeepEqual(a.OutW, b.OutW) {
		t.Fatalf("%s: edges differ", label)
	}
	if a.InternalTraffic != b.InternalTraffic {
		t.Fatalf("%s: internal traffic differs: %g vs %g", label, a.InternalTraffic, b.InternalTraffic)
	}
}

// stressedGraph is the faulted-constraints equivalence workload: an explicit
// random graph partitioned under tiny per-core budgets with the synapse
// limit enforced, so every capacity branch of the multilevel pipeline is
// exercised.
func stressedGraph(t *testing.T) (*snn.Graph, PartitionConfig) {
	t.Helper()
	g, err := snn.RandomGraph(snn.RandomConfig{
		Neurons:       20000,
		AvgDegree:     8,
		LocalityBand:  0.01,
		LongRangeFrac: 0.05,
		MaxDensity:    1,
	}, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	cfg := PartitionConfig{
		Constraints:     hw.Constraints{NeuronsPerCore: 48, SynapsesPerCore: 600},
		EnforceSynapses: true,
	}
	return g, cfg
}

// TestMultilevelWorkerEquivalence is the multilevel determinism matrix:
// Workers ∈ {1,2,4,7} must produce bit-identical assignments and PCNs on a
// faulted-constraints explicit graph. Run under -race in CI.
func TestMultilevelWorkerEquivalence(t *testing.T) {
	workers := []int{1, 2, 4, 7}

	t.Run("StressedConstraints", func(t *testing.T) {
		g, cfg := stressedGraph(t)
		var base *Result
		for _, w := range workers {
			run := cfg
			run.Multilevel = &MultilevelOptions{Workers: w}
			res, _, err := PartitionMultilevel(g, run)
			if err != nil {
				t.Fatalf("workers=%d: %v", w, err)
			}
			if base == nil {
				base = res
				continue
			}
			if !reflect.DeepEqual(base.ClusterOf, res.ClusterOf) {
				t.Fatalf("workers=%d: assignments differ", w)
			}
			samePCN(t, "stressed", base.PCN, res.PCN)
		}
	})
}

// TestMultilevelExplicitAgainstFlat checks the explicit-graph path end to
// end: the multilevel assignment covers every neuron, cluster occupancy
// matches the assignment, and the cut is no worse than flat Partition's.
func TestMultilevelExplicitAgainstFlat(t *testing.T) {
	g, cfg := stressedGraph(t)
	flat, err := Partition(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	run := cfg
	run.Multilevel = &MultilevelOptions{Workers: 4}
	res, stats, err := PartitionMultilevel(g, run)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.PCN.Validate(); err != nil {
		t.Fatal(err)
	}
	if stats.CutFlat != flat.PCN.TotalWeight() {
		t.Errorf("stats.CutFlat = %g, want %g", stats.CutFlat, flat.PCN.TotalWeight())
	}
	if got := res.PCN.TotalWeight(); got > stats.CutFlat {
		t.Errorf("returned cut %g worse than flat %g", got, stats.CutFlat)
	}
	if len(res.ClusterOf) != g.NumNeurons {
		t.Fatalf("assignment covers %d neurons, want %d", len(res.ClusterOf), g.NumNeurons)
	}
	sizes := make([]int32, res.PCN.NumClusters)
	for _, c := range res.ClusterOf {
		if c < 0 || int(c) >= res.PCN.NumClusters {
			t.Fatalf("assignment has out-of-range cluster %d", c)
		}
		sizes[c]++
	}
	if !reflect.DeepEqual(sizes, res.PCN.Neurons) {
		t.Fatal("PCN.Neurons disagrees with the assignment")
	}
	// The multilevel route through PartitionConfig must agree with the
	// direct call.
	viaConfig, err := Partition(g, run)
	if err != nil {
		t.Fatal(err)
	}
	samePCN(t, "config-route", res.PCN, viaConfig.PCN)
}

// TestFixedScheduleReproducesDefaults pins the multilevel schedule, which is
// constant, to the results its former option defaults gave on one seeded
// random graph.
func TestFixedScheduleReproducesDefaults(t *testing.T) {
	g, err := snn.RandomGraph(snn.RandomConfig{
		Neurons:       30000,
		AvgDegree:     8,
		LocalityBand:  0.02,
		LongRangeFrac: 0.05,
		MaxDensity:    1,
	}, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	cfg := PartitionConfig{Constraints: hw.Constraints{NeuronsPerCore: 256}, Multilevel: &MultilevelOptions{}}
	res, st, err := PartitionMultilevel(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	for _, c := range res.ClusterOf {
		h.Write(binary.LittleEndian.AppendUint32(nil, uint32(c)))
	}
	if st.UsedFlat || st.Levels != 4 || st.Moves != 31 ||
		math.Float64bits(res.PCN.TotalWeight()) != 0x40f6e16216399826 || h.Sum64() != 0x96a4ce64eba41425 {
		t.Errorf("multilevel: usedFlat %v, %d levels, %d moves, cut bits %x, assignment hash %#x; want false, 4, 31, 40f6e16216399826, 0x96a4ce64eba41425",
			st.UsedFlat, st.Levels, st.Moves, math.Float64bits(res.PCN.TotalWeight()), h.Sum64())
	}
}

// TestMultilevelIgnoresSplitAtLayers pins the documented behaviour: the
// multilevel grouping merges across layer boundaries even under
// SplitAtLayers and tags mixed clusters layer -1 (the flat fallback compares
// cuts only), while flat Partition on the same graph keeps every cluster
// inside one layer.
func TestMultilevelIgnoresSplitAtLayers(t *testing.T) {
	g := snn.FullyConnected(4, 256)
	cfg := PartitionConfig{Constraints: hw.Constraints{NeuronsPerCore: 64}, SplitAtLayers: true}
	flat, err := Partition(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for c, l := range flat.PCN.Layer {
		if l < 0 {
			t.Fatalf("flat cluster %d mixes layers", c)
		}
	}
	cfg.Multilevel = &MultilevelOptions{}
	res, st, err := PartitionMultilevel(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st.UsedFlat {
		t.Fatal("test premise: multilevel must beat flat on this graph")
	}
	layers := make([]map[int32]bool, res.PCN.NumClusters)
	for v, c := range res.ClusterOf {
		if layers[c] == nil {
			layers[c] = map[int32]bool{}
		}
		layers[c][g.Layer[v]] = true
	}
	mixed := 0
	for c, l := range res.PCN.Layer {
		if pure := len(layers[c]) == 1; pure != (l >= 0) {
			t.Fatalf("cluster %d tagged layer %d but holds %d layers", c, l, len(layers[c]))
		}
		if l < 0 {
			mixed++
		}
	}
	if mixed == 0 {
		t.Fatal("no multilevel cluster mixes layers; the documented behaviour is not exercised")
	}
}

// TestHeavyEdgeMatchInvariants checks the matching is an involution that
// respects the merge caps, at several worker counts.
func TestHeavyEdgeMatchInvariants(t *testing.T) {
	g, cfg := stressedGraph(t)
	fineCfg := cfg
	fineCfg.Constraints.NeuronsPerCore = 6
	fine, err := Partition(g, fineCfg)
	if err != nil {
		t.Fatal(err)
	}
	p := fine.PCN
	u := p.Undirected()
	var base []int32
	for _, workers := range []int{1, 3, 8} {
		match := heavyEdgeMatch(u, p.Neurons, p.Synapses, 48, 600, 8, workers, nil)
		if base == nil {
			base = match
		} else if !reflect.DeepEqual(base, match) {
			t.Fatalf("workers=%d: matching differs from sequential", workers)
		}
		pairs := 0
		for v, m := range match {
			if m < 0 || int(m) >= p.NumClusters {
				t.Fatalf("match[%d] = %d out of range", v, m)
			}
			if match[m] != int32(v) {
				t.Fatalf("match not an involution at %d: match[%d]=%d, match[%d]=%d", v, v, m, m, match[m])
			}
			if int(m) != v {
				pairs++
				if p.Neurons[v]+p.Neurons[m] > 48 {
					t.Fatalf("pair (%d,%d) exceeds neuron cap", v, m)
				}
				if p.Synapses[v]+p.Synapses[m] > 600 {
					t.Fatalf("pair (%d,%d) exceeds synapse cap", v, m)
				}
			}
		}
		if pairs == 0 {
			t.Fatal("matching found no pairs on a connected graph")
		}
	}
}

// TestContractConservesTotals checks contraction keeps neuron and synapse
// totals, and that the undirected weight splits exactly into the coarse
// weight plus the internalized weight.
func TestContractConservesTotals(t *testing.T) {
	g, cfg := stressedGraph(t)
	fineCfg := cfg
	fineCfg.Constraints.NeuronsPerCore = 6
	fine, err := Partition(g, fineCfg)
	if err != nil {
		t.Fatal(err)
	}
	p := fine.PCN
	lv := &gLevel{u: p.Undirected(), neurons: p.Neurons, synapses: p.Synapses, layer: p.Layer}
	match := heavyEdgeMatch(lv.u, lv.neurons, lv.synapses, 48, 600, 8, 2, nil)
	coarse, internal := contract(lv, match, 2, nil)

	var fineN, coarseN int64
	var fineS, coarseS int64
	for _, n := range lv.neurons {
		fineN += int64(n)
	}
	for _, n := range coarse.neurons {
		coarseN += int64(n)
	}
	for _, s := range lv.synapses {
		fineS += s
	}
	for _, s := range coarse.synapses {
		coarseS += s
	}
	if fineN != coarseN || fineS != coarseS {
		t.Fatalf("totals not conserved: neurons %d→%d, synapses %d→%d", fineN, coarseN, fineS, coarseS)
	}

	sum := func(u *Undirected) float64 {
		var s float64
		for _, w := range u.W {
			s += w
		}
		return s
	}
	// Every undirected entry appears in both endpoint lists, so the view's
	// weight sum is twice the edge weight; internalized weight leaves it.
	fineW, coarseW := sum(lv.u), sum(coarse.u)
	if math.Abs(fineW-(coarseW+2*internal)) > 1e-6*math.Max(1, fineW) {
		t.Fatalf("weight not conserved: fine %g, coarse %g + 2×internal %g", fineW, coarseW, internal)
	}
	// Projection map is total and in range.
	for v, c := range lv.coarseOf {
		if c < 0 || int(c) >= len(coarse.neurons) {
			t.Fatalf("coarseOf[%d] = %d out of range", v, c)
		}
	}
	// Coarse adjacency is a valid sorted CSR without self-loops.
	for c := 0; c < len(coarse.neurons); c++ {
		tos, _ := coarse.u.Neighbors(c)
		for k, to := range tos {
			if int(to) == c {
				t.Fatalf("coarse vertex %d has a self-loop", c)
			}
			if k > 0 && tos[k-1] >= to {
				t.Fatalf("coarse vertex %d targets not strictly increasing", c)
			}
		}
	}
}

// FuzzMultilevelRoundTrip is the issue's round-trip fuzz target: for any
// random graph and constraint mix, projecting the multilevel grouping back
// to neurons must preserve neuron/synapse totals, keep every cluster within
// hw.Constraints capacity, and account for all traffic.
func FuzzMultilevelRoundTrip(f *testing.F) {
	f.Add(int64(1), uint16(2000), uint8(32), uint8(4), true)
	f.Add(int64(2), uint16(500), uint8(7), uint8(3), false)
	f.Add(int64(3), uint16(4096), uint8(64), uint8(8), true)
	f.Fuzz(func(t *testing.T, seed int64, neurons uint16, npc uint8, workers uint8, enforce bool) {
		n := int(neurons)%5000 + 2
		g, err := snn.RandomGraph(snn.RandomConfig{
			Neurons:       n,
			AvgDegree:     4,
			LocalityBand:  0.05,
			LongRangeFrac: 0.1,
			MaxDensity:    1,
		}, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		spc := 500
		cfg := PartitionConfig{
			Constraints:     hw.Constraints{NeuronsPerCore: int(npc)%64 + 1, SynapsesPerCore: spc},
			EnforceSynapses: enforce,
			Multilevel:      &MultilevelOptions{Workers: int(workers)%8 + 1},
		}
		res, _, err := PartitionMultilevel(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		p := res.PCN
		if err := p.Validate(); err != nil {
			t.Fatal(err)
		}
		if got := p.TotalNeurons(); got != int64(n) {
			t.Fatalf("neuron total %d, want %d", got, n)
		}
		var fanIn int64
		for _, d := range g.FanIn {
			fanIn += int64(d)
		}
		if got := p.TotalSynapses(); got != fanIn {
			t.Fatalf("synapse total %d, want %d", got, fanIn)
		}
		sizes := make([]int32, p.NumClusters)
		for i, c := range res.ClusterOf {
			if c < 0 || int(c) >= p.NumClusters {
				t.Fatalf("neuron %d assigned out-of-range cluster %d", i, c)
			}
			sizes[c]++
		}
		npcLimit := int32(cfg.Constraints.NeuronsPerCore)
		for c := 0; c < p.NumClusters; c++ {
			if sizes[c] != p.Neurons[c] {
				t.Fatalf("cluster %d size %d disagrees with PCN %d", c, sizes[c], p.Neurons[c])
			}
			if p.Neurons[c] <= 0 || p.Neurons[c] > npcLimit {
				t.Fatalf("cluster %d holds %d neurons, limit %d", c, p.Neurons[c], npcLimit)
			}
			// A single neuron whose fan-in alone exceeds CON_spc is admitted
			// (it cannot be split), mirroring Algorithm 1.
			if enforce && p.Neurons[c] > 1 && p.Synapses[c] > int64(spc) {
				t.Fatalf("cluster %d holds %d synapses > CON_spc %d", c, p.Synapses[c], spc)
			}
		}
		var total float64
		for _, w := range g.OutW {
			total += w
		}
		if got := p.TotalWeight() + p.InternalTraffic; math.Abs(got-total) > 1e-6*math.Max(1, total) {
			t.Fatalf("traffic not conserved: cut+internal %g, graph total %g", got, total)
		}
	})
}

// fallbackGraph is a seeded banded graph, tagged with four layers, on which
// flat Algorithm 1's contiguous ranges already cut less than the multilevel
// grouping, so PartitionMultilevel returns the flat result.
func fallbackGraph(t *testing.T) (*snn.Graph, PartitionConfig) {
	t.Helper()
	g, err := snn.RandomGraph(snn.RandomConfig{
		Neurons: 3000, AvgDegree: 4, LocalityBand: 0.01, MaxDensity: 1,
	}, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	g.Layer = make([]int32, g.NumNeurons)
	for i := range g.Layer {
		g.Layer[i] = int32(4 * i / g.NumNeurons)
	}
	return g, PartitionConfig{Constraints: hw.Constraints{NeuronsPerCore: 64, SynapsesPerCore: 500}, SplitAtLayers: true}
}

// TestMultilevelFallbackEqualsFlat holds the fallback, whose flat PCN is
// built only once it is chosen, to flat Partition bit for bit at workers 1
// and 3: assignment, CSR, internal traffic, occupancy and layers.
func TestMultilevelFallbackEqualsFlat(t *testing.T) {
	g, cfg := fallbackGraph(t)
	flat, err := Partition(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 3} {
		run := cfg
		run.Multilevel = &MultilevelOptions{Workers: workers}
		res, st, err := PartitionMultilevel(g, run)
		if err != nil {
			t.Fatal(err)
		}
		if !st.UsedFlat {
			t.Fatalf("workers=%d: test premise: the flat fallback must be taken (cut %g vs flat %g)", workers, st.CutMultilevel, st.CutFlat)
		}
		if !reflect.DeepEqual(res.ClusterOf, flat.ClusterOf) {
			t.Fatalf("workers=%d: fallback assignment differs from flat Partition", workers)
		}
		samePCN(t, fmt.Sprintf("fallback workers=%d", workers), flat.PCN, res.PCN)
	}
}

// TestMultilevelCutFlatBitwise holds the streamed CutFlat to the TotalWeight
// of flat Partition's PCN bit for bit, on a graph that takes the fallback and
// on one that does not.
func TestMultilevelCutFlatBitwise(t *testing.T) {
	for _, tc := range []struct {
		name     string
		graph    func(*testing.T) (*snn.Graph, PartitionConfig)
		usedFlat bool
	}{
		{"fallback", fallbackGraph, true},
		{"multilevel", stressedGraph, false},
	} {
		g, cfg := tc.graph(t)
		flat, err := Partition(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Multilevel = &MultilevelOptions{Workers: 2}
		_, st, err := PartitionMultilevel(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if st.UsedFlat != tc.usedFlat {
			t.Fatalf("%s: test premise: UsedFlat %v, want %v", tc.name, st.UsedFlat, tc.usedFlat)
		}
		if got, want := math.Float64bits(st.CutFlat), math.Float64bits(flat.PCN.TotalWeight()); got != want {
			t.Fatalf("%s: CutFlat bits %x, flat PCN TotalWeight bits %x", tc.name, got, want)
		}
	}
}
