package pcn

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"snnmap/internal/hw"
	"snnmap/internal/snn"
)

// expandRun appends a weight run to dst one weight per id, repeating a
// broadcast row's single weight, after checking the edges/Neighbors length
// contract.
func expandRun(t *testing.T, dst []float64, ids []int32, ws []float64) []float64 {
	t.Helper()
	if len(ws) != len(ids) && len(ws) != 1 {
		t.Fatalf("run of %d ids carries %d weights, want %d or 1", len(ids), len(ws), len(ids))
	}
	mask := WeightMask(ids, ws)
	for k := range ids {
		dst = append(dst, ws[k&mask])
	}
	return dst
}

// wantInWeights counts the weights the in-CSR must store, from the PCN's
// raw out-edges: every edge of an in-row whose weights differ in any bit,
// one for a uniform row, none for an empty one. It also reports how many
// rows were uniform with more than one source (the rows compaction saves on).
func wantInWeights(p *PCN) (stored int, broadcastRows int) {
	rows := make([][]float64, p.NumClusters)
	for i := 0; i < p.NumClusters; i++ {
		tos, ws := p.OutEdges(i)
		for k, to := range tos {
			rows[to] = append(rows[to], ws[k])
		}
	}
	for _, row := range rows {
		mixed := slices.ContainsFunc(row, func(w float64) bool {
			return math.Float64bits(w) != math.Float64bits(row[0])
		})
		switch {
		case mixed:
			stored += len(row)
		case len(row) > 0:
			stored++
			if len(row) > 1 {
				broadcastRows++
			}
		}
	}
	return stored, broadcastRows
}

// checkSymmetricEqualsUndirected asserts the merged out+transpose walk
// yields Undirected's adjacency entry for entry — ids and weight bits, a
// broadcast run expanded first — that Weight agrees with it for every
// connected pair and some unconnected ones, and that the in-CSR stores
// exactly the weights wantInWeights counts (returned, with the number of
// broadcast rows). Undirected is the oracle here; FD itself never builds it.
func checkSymmetricEqualsUndirected(t *testing.T, name string, p *PCN) (stored, broadcastRows int) {
	t.Helper()
	u, s := p.Undirected(), p.Symmetric()
	stored, broadcastRows = wantInWeights(p)
	if len(s.in.w) != stored {
		t.Fatalf("%s: in-CSR stores %d weights for %d edges, want %d", name, len(s.in.w), p.NumEdges(), stored)
	}
	var buf MergeBuf
	for c := 0; c < p.NumClusters; c++ {
		wantTo, wantW := u.Neighbors(c)
		to1, w1, to2, w2 := s.Neighbors(c, &buf)
		gotTo := append(append([]int32(nil), to1...), to2...)
		gotW := expandRun(t, expandRun(t, nil, to1, w1), to2, w2)
		if len(gotTo) != len(wantTo) || len(gotW) != len(wantW) {
			t.Fatalf("%s: cluster %d has %d merged neighbors, Undirected %d", name, c, len(gotTo), len(wantTo))
		}
		for k := range wantTo {
			if gotTo[k] != wantTo[k] || math.Float64bits(gotW[k]) != math.Float64bits(wantW[k]) {
				t.Fatalf("%s: cluster %d entry %d = (%d, %v), Undirected (%d, %v)",
					name, c, k, gotTo[k], gotW[k], wantTo[k], wantW[k])
			}
			if got := s.Weight(int32(c), wantTo[k]); math.Float64bits(got) != math.Float64bits(wantW[k]) {
				t.Fatalf("%s: Weight(%d, %d) = %v, Undirected %v", name, c, wantTo[k], got, wantW[k])
			}
		}
		if other := int32((c + p.NumClusters/2) % p.NumClusters); lookup(u, c, other) == -1 {
			if got := s.Weight(int32(c), other); got != 0 {
				t.Fatalf("%s: Weight(%d, %d) = %v for an unconnected pair", name, c, other, got)
			}
		}
	}
	return stored, broadcastRows
}

func TestSymmetricEqualsUndirected(t *testing.T) {
	// Seeded random graphs with non-integer weights (so the mutual-pair sum
	// is a real rounding): forward, back and mutual edges, with the last
	// clusters left isolated and a few made sink-only or source-only.
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 40 + rng.Intn(40)
		p := &PCN{NumClusters: n, Neurons: make([]int32, n), Synapses: make([]int64, n), Layer: make([]int32, n)}
		var from, to []int32
		var w []float64
		add := func(a, b int) {
			from, to, w = append(from, int32(a)), append(to, int32(b)), append(w, rng.Float64()*9+0.1)
		}
		live := n - 4 // n-4 … n-1 stay isolated
		for i := 0; i < 6*n; i++ {
			a, b := 3+rng.Intn(live-6), 3+rng.Intn(live-6)
			if a == b {
				continue
			}
			add(a, b)
			if rng.Intn(3) == 0 {
				add(b, a) // mutual pair
			}
		}
		for i := 0; i < 5; i++ {
			add(0, 3+rng.Intn(live-6))      // 0: source-only, targets above it
			add(live-1, 3+rng.Intn(live-6)) // source-only, targets below it
			add(3+rng.Intn(live-6), 1)      // 1: sink-only, sources above it
			add(3+rng.Intn(live-6), live-2) // sink-only, sources below it
			add(3+rng.Intn(live-6), 2)      // 2: sources above its one target
			add(3+rng.Intn(live-6), live-3) // sources below its one target
		}
		add(2, 1)
		add(live-3, live-2)
		buildCSR(p, from, to, w)
		if err := p.Validate(); err != nil {
			t.Fatal(err)
		}
		// Random float weights never repeat, so every in-row is mixed (or has
		// one source) and compaction must save nothing.
		if stored, _ := checkSymmetricEqualsUndirected(t, "random", p); stored != int(p.NumEdges()) {
			t.Fatalf("random seed %d: %d weights stored for %d all-distinct edges", seed, stored, p.NumEdges())
		}
	}

	// One hand-built PCN with every in-row shape next to the others.
	{
		const n = 12
		p := &PCN{NumClusters: n, Neurons: make([]int32, n), Synapses: make([]int64, n), Layer: make([]int32, n)}
		var from, to []int32
		var w []float64
		add := func(a, b int, wt float64) { from, to, w = append(from, int32(a)), append(to, int32(b)), append(w, wt) }
		for _, src := range []int{0, 1, 2, 3} {
			add(src, 4, 2.5) // 4: uniform, all sources below all targets (concatenation)
		}
		add(4, 8, 1)
		add(4, 9, 7)
		add(0, 5, 3.25) // 5: degree 1
		// 6 and 11 stay without in-edges (6 has out-edges, 11 is isolated).
		add(6, 7, 1.5)
		for _, src := range []int{0, 1, 2} {
			add(src, 7, 1.5) // 7: uniform (with 6) ...
		}
		add(9, 7, 1.5000000000000002) // ... except the last source, by one ulp
		// 8: uniform in-row {2, 4, 10} interleaved with its out-row {3, 9, 10}:
		// the merge branch reads the broadcast weight, and sums it for the
		// mutual pair 8↔10.
		add(2, 8, 1)
		add(10, 8, 1)
		add(8, 3, 0.3)
		add(8, 9, 0.7)
		add(8, 10, 0.1)
		buildCSR(p, from, to, w)
		if err := p.Validate(); err != nil {
			t.Fatal(err)
		}
		// In-rows 3, 4, 5, 7, 8, 9, 10 store 1, 1, 1, 5, 1, 2, 1 weights: what
		// wantInWeights counts, pinned so the shapes above cannot silently change.
		stored, broadcast := checkSymmetricEqualsUndirected(t, "row-shapes", p)
		if broadcast != 2 || stored != 1+1+1+5+1+2+1 {
			t.Fatalf("row-shapes: %d broadcast rows storing %d weights in all, want 2 and 12", broadcast, stored)
		}
		s := p.Symmetric()
		if _, ws := s.in.edges(8); len(ws) != 1 {
			t.Fatalf("row-shapes: uniform in-row 8 stores %d weights", len(ws))
		}
		if to1, w1, to2, _ := s.Neighbors(8, &MergeBuf{}); len(to2) != 0 || len(w1) != len(to1) || len(to1) != 5 {
			t.Fatalf("row-shapes: cluster 8 did not take the merge branch: runs %v / %v", to1, to2)
		}
		if _, ws := s.in.edges(7); len(ws) != 5 {
			t.Fatalf("row-shapes: in-row 7 differs in its last source only but stores %d weights", len(ws))
		}
	}

	g, err := snn.RandomReservoirGraph(16, 120, 8, 6, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Partition(g, PartitionConfig{Constraints: hw.Constraints{NeuronsPerCore: 4}})
	if err != nil {
		t.Fatal(err)
	}
	checkSymmetricEqualsUndirected(t, "reservoir-graph", res.PCN)

	lsm, err := snn.Reservoir("lsm", snn.ReservoirConfig{Inputs: 2048, ReservoirNeurons: 40960, Readouts: 1024})
	if err != nil {
		t.Fatal(err)
	}
	// ResNet's residual blocks give a target cluster two Conns, so two
	// weights. ragged's layers end in a 904-neuron cluster whose share
	// differs: its in-rows are uniform except the last source.
	ragged := snn.SynthDNN("ragged", 4, 3*4096+904)
	for _, net := range []*snn.Net{lsm, snn.MobileNet(), snn.ResNet(), ragged} {
		p, err := Expand(net, DefaultPartition())
		if err != nil {
			t.Fatal(err)
		}
		stored, _ := checkSymmetricEqualsUndirected(t, net.Name, p)
		if net == ragged && stored != int(p.NumEdges()) {
			t.Fatalf("ragged: %d weights stored for %d edges, every in-row mixed by its last source", stored, p.NumEdges())
		}
	}

	// The memory property, as a count: on a dense layer-spec net every
	// in-row is one broadcast weight, so the transpose stores one float64
	// per cluster that has a source layer.
	dnn, err := Expand(snn.DNN65K(), DefaultPartition())
	if err != nil {
		t.Fatal(err)
	}
	stored, broadcast := checkSymmetricEqualsUndirected(t, "DNN_65K", dnn)
	if withSources := dnn.NumClusters - 4; stored != withSources || broadcast != withSources {
		t.Fatalf("DNN_65K: %d weights in %d broadcast rows for %d edges, want %d", stored, broadcast, dnn.NumEdges(), withSources)
	}
}

// TestLazyAdjacencyConcurrentFirstUse builds both lazy views from several
// goroutines at once on a PCN nobody has touched yet; under -race this is
// the first-use data-race check, and every caller must get the one cached
// view.
func TestLazyAdjacencyConcurrentFirstUse(t *testing.T) {
	p, err := Expand(snn.MobileNet(), DefaultPartition())
	if err != nil {
		t.Fatal(err)
	}
	const callers = 8
	syms := make([]*Symmetric, callers)
	unds := make([]*Undirected, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			syms[i], unds[i] = p.Symmetric(), p.Undirected()
		}(i)
	}
	wg.Wait()
	for i := 1; i < callers; i++ {
		if syms[i] != syms[0] || unds[i] != unds[0] {
			t.Fatalf("caller %d got its own adjacency view", i)
		}
	}
	q := *p // a PCN stays a plain copyable value; the copy shares the views
	if q.Symmetric() != syms[0] {
		t.Error("copied PCN rebuilt the view of the arrays it aliases")
	}
}

// Weight returns the combined undirected weight between two clusters (0
// when unconnected) by binary search over both sides. It is the oracle for
// the weights Neighbors hands FD's force walks, which fill the mutual-weight
// cache from them instead of searching.
func (s *Symmetric) Weight(c1, c2 int32) float64 {
	out, outW := s.out.edges(int(c1))
	in, inW := s.in.edges(int(c1))
	i, okOut := slices.BinarySearch(out, c2)
	j, okIn := slices.BinarySearch(in, c2)
	i, j = i&WeightMask(out, outW), j&WeightMask(in, inW)
	switch {
	case okOut && okIn:
		return outW[i] + inW[j]
	case okOut:
		return outW[i]
	case okIn:
		return inW[j]
	}
	return 0
}
