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

// buildSymmetricOracle is the transpose as it was before in-rows shared id
// runs, kept verbatim but for the final literal: one id per in-edge, every
// cluster its own run.
func (p *PCN) buildSymmetricOracle() *Symmetric {
	n := p.NumClusters
	off := make([]int64, n+1)
	// The counting pass also learns which in-rows are uniform: first[t] is
	// the first weight row t meets, mixed[t] whether a later one differs.
	first := make([]float64, n)
	mixed := make([]bool, n)
	for k, to := range p.OutTo {
		if w := p.OutW[k]; off[to+1] == 0 {
			first[to] = w
		} else if math.Float64bits(w) != math.Float64bits(first[to]) {
			mixed[to] = true
		}
		off[to+1]++
	}
	wOff := make([]int64, n+1)
	for i := 0; i < n; i++ {
		deg := off[i+1]
		off[i+1] += off[i]
		if !mixed[i] {
			deg = min(deg, 1)
		}
		wOff[i+1] = wOff[i] + deg
	}
	from := make([]int32, off[n])
	w := make([]float64, wOff[n])
	rank := make([]int64, n) // in-edges of each row scattered so far
	for i := 0; i < n; i++ {
		tos, ws := p.OutEdges(i)
		for k, t := range tos {
			r := rank[t]
			rank[t]++
			from[off[t]+r] = int32(i)
			if lo := wOff[t]; r < wOff[t+1]-lo {
				w[lo+r] = ws[k] // every edge of a mixed row, the first of a uniform one
			}
		}
	}
	return &Symmetric{out: csr{off: p.OutOff, wOff: p.OutOff, ids: p.OutTo, w: p.OutW}, in: csr{off: off, wOff: wOff, ids: from, w: w}}
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// isLead reports whether cluster c starts an id run of the in-CSR.
func (s *Symmetric) isLead(c int) bool { return c == 0 || s.in.row[c] != s.in.row[c-1] }

// checkInEdgesMatchOracle asserts InEdges returns, for every cluster, the
// ids and weight bits of buildSymmetricOracle; that a cluster reads its
// predecessor's id run exactly when the two source sets are equal; and that
// the stored ids are Σ indeg over the first cluster of each run. It returns
// the number of runs and of stored ids.
func checkInEdgesMatchOracle(t *testing.T, name string, p *PCN) (runs, storedIDs int) {
	t.Helper()
	want, s := p.buildSymmetricOracle(), p.Symmetric()
	var leadDeg int
	for c := 0; c < p.NumClusters; c++ {
		ids, ws := s.InEdges(c)
		wantIDs, wantWs := want.in.edges(c)
		if !slices.Equal(ids, wantIDs) || !slices.EqualFunc(ws, wantWs, sameBits) {
			t.Fatalf("%s: InEdges(%d) = %v %v, oracle %v %v", name, c, ids, ws, wantIDs, wantWs)
		}
		if c > 0 {
			prev, _ := want.in.edges(c - 1)
			if shared := slices.Equal(ids, prev); shared == s.isLead(c) {
				t.Fatalf("%s: cluster %d has source set %v, cluster %d %v, but shares its run: %v", name, c, ids, c-1, prev, !s.isLead(c))
			}
		}
		if s.isLead(c) {
			leadDeg += len(ids)
		}
	}
	if leadDeg != len(s.in.ids) {
		t.Fatalf("%s: in-CSR stores %d ids, Σ indeg over run leads is %d", name, len(s.in.ids), leadDeg)
	}
	return len(s.in.off) - 1, len(s.in.ids)
}

// checkOutEdgesShared asserts Symmetric.OutEdges expands to the PCN's own
// out-row for every cluster, ids and weight bits; that a cluster reads its
// predecessor's id slice exactly when the two nonempty out-rows are
// bit-equal; that a shared out side stores one weight for a uniform row; and
// that the out side is the identity alias of the PCN's CSR when no row is
// shared. It returns the number of clusters that share their predecessor's
// out-row.
func checkOutEdgesShared(t *testing.T, name string, p *PCN) (shared int) {
	t.Helper()
	s := p.Symmetric()
	for c := 0; c < p.NumClusters; c++ {
		ids, ws := s.OutEdges(c)
		wantIDs, wantWs := p.OutEdges(c)
		if !slices.Equal(ids, wantIDs) || !slices.EqualFunc(expandRun(t, nil, ids, ws), wantWs, sameBits) {
			t.Fatalf("%s: OutEdges(%d) = %v %v, PCN %v %v", name, c, ids, ws, wantIDs, wantWs)
		}
		if s.out.row != nil && len(ws) > 1 && !slices.ContainsFunc(ws, func(w float64) bool { return !sameBits(w, ws[0]) }) {
			t.Fatalf("%s: uniform out-row %d stores %d weights", name, c, len(ws))
		}
		if c == 0 || len(ids) == 0 {
			continue
		}
		prevIDs, prevWs := p.OutEdges(c - 1)
		equal := slices.Equal(prevIDs, wantIDs) && slices.EqualFunc(prevWs, wantWs, sameBits)
		got, _ := s.OutEdges(c - 1)
		if same := len(got) == len(ids) && &got[0] == &ids[0]; same != equal {
			t.Fatalf("%s: out-rows %d and %d bit-equal %v, one slice %v", name, c-1, c, equal, same)
		}
		if equal {
			shared++
		}
	}
	if alias := s.out.row == nil; alias != (shared == 0) {
		t.Fatalf("%s: %d out-rows shared, out side aliases the PCN's CSR: %v", name, shared, alias)
	}
	return shared
}

// checkSymmetricEqualsUndirected asserts the merged out+transpose walk
// yields Undirected's adjacency entry for entry — ids and weight bits, a
// broadcast run expanded first — that Weight agrees with it for every
// connected pair and some unconnected ones, that the in-CSR stores
// exactly the weights wantInWeights counts (returned, with the number of
// broadcast rows), and checkInEdgesMatchOracle. Undirected is the oracle
// here; FD itself never builds it.
func checkSymmetricEqualsUndirected(t *testing.T, name string, p *PCN) (stored, broadcastRows int) {
	t.Helper()
	checkInEdgesMatchOracle(t, name, p)
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
		const n = 24
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
		// Shared id runs. 0: target 0 has a source. 14, 15, 16 share {12, 13},
		// 16 under differing weights; 17 has their degree but one other source.
		// Rows 13 and 18 (14–17 have none) and rows 19 and 20 meet in the flat
		// OutTo at 16|17 and 20|21, where counting t−1-before-t across rows
		// would wrongly share 17's and 21's runs. 1–2, 11–13, 18–19 and 22–23
		// are runs of empty in-rows.
		add(12, 0, 4)
		for _, t := range []int{14, 15} {
			add(12, t, 2)
			add(13, t, 2)
		}
		add(12, 16, 2)
		add(13, 16, 3)
		add(12, 17, 5)
		add(18, 17, 5)
		add(19, 20, 6)
		add(20, 21, 6)
		buildCSR(p, from, to, w)
		if err := p.Validate(); err != nil {
			t.Fatal(err)
		}
		// In-rows 0, 3, 4, 5, 7, 8, 9, 10, 14, 15, 16, 17, 20, 21 store 1, 1, 1,
		// 1, 5, 1, 2, 1, 1, 1, 2, 1, 1, 1 weights: what wantInWeights counts,
		// pinned so the shapes above cannot silently change.
		stored, broadcast := checkSymmetricEqualsUndirected(t, "row-shapes", p)
		if broadcast != 5 || stored != 20 {
			t.Fatalf("row-shapes: %d broadcast rows storing %d weights in all, want 5 and 20", broadcast, stored)
		}
		// 17 runs: 15 and 16 read 14's, and each empty stretch shares one. The
		// 28 edges store 24 ids.
		s := p.Symmetric()
		if runs, ids := len(s.in.off)-1, len(s.in.ids); runs != 17 || ids != 24 {
			t.Fatalf("row-shapes: %d id runs storing %d ids, want 17 and 24", runs, ids)
		}
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

// TestSymmetricSharedRuns pins the id-run sharing as counts on the
// benchmark-scale nets, against the unshared oracle. DNN_268M's 1024 layers
// of 64 clusters need one run per layer: the input layer's empty in-rows,
// then the previous layer's 64 ids. CNN_268M's sliding windows share only
// where a window repeats; ResNet's irregular layers in between. On the out
// side every cluster of a dense layer but the first shares its
// predecessor's out-row (DNN_268M: 1023 layers × 63), no CNN window repeats,
// and ResNet's and MobileNet's layers share where one layer feeds the next
// whole. ragged's out-rows are mixed (the 904-neuron last target takes a
// smaller share) yet repeat, but for the 904-neuron source's, which carries
// less traffic: two shared per source layer.
func TestSymmetricSharedRuns(t *testing.T) {
	for _, c := range []struct {
		net                     *snn.Net
		runs, ids, edge, shared int
	}{
		{snn.DNN268M(), 1024, 65472, 4190208, 1023 * 63},
		{snn.CNN268M(), 62404, 249612, 261888, 0},
		{snn.ResNet(), 3203, 70788, 165761, 1502},
		{snn.MobileNet(), -1, -1, 45055, 490},
		{snn.SynthDNN("ragged", 5, 3*4096+904), -1, -1, 64, 4 * 2},
	} {
		p, err := Expand(c.net, DefaultPartition())
		if err != nil {
			t.Fatal(err)
		}
		runs, ids := checkInEdgesMatchOracle(t, c.net.Name, p)
		if c.runs >= 0 && (runs != c.runs || ids != c.ids) || p.NumEdges() != int64(c.edge) {
			t.Fatalf("%s: %d runs storing %d ids for %d edges, want %d, %d, %d", c.net.Name, runs, ids, p.NumEdges(), c.runs, c.ids, c.edge)
		}
		if shared := checkOutEdgesShared(t, c.net.Name, p); shared != c.shared {
			t.Fatalf("%s: %d clusters share their predecessor's out-row, want %d", c.net.Name, shared, c.shared)
		}
	}
}

// FuzzSymmetric decodes a small PCN — per source, a window of targets with
// holes punched in it, so neighbouring in-rows often share a source set,
// and weights from a short palette, so rows are uniform as often as mixed;
// or, for one source in four, its predecessor's out-row again, so stretches
// of equal out-rows form — and holds InEdges to the naive transpose bit for
// bit, with the stored ids equal to Σ indeg over the clusters whose source
// set differs from their predecessor's, and OutEdges to the PCN's rows with
// equal consecutive rows sharing one slice (checkOutEdgesShared).
func FuzzSymmetric(f *testing.F) {
	f.Add([]byte{8, 0, 8, 0, 0, 8, 0, 1, 1, 1})
	f.Add([]byte{12, 3, 5, 0x12, 2, 7, 4, 0, 9, 2, 0x80, 1, 2, 3})
	f.Add([]byte{20, 19, 1, 0, 0, 1, 0, 1, 18, 255, 0, 5, 5, 5, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		n := 1 + next()%24
		palette := [...]float64{2, 2.5, 0.1, 0.30000000000000004}
		p := &PCN{NumClusters: n, OutOff: make([]int64, n+1)}
		for i := 0; i < n; i++ {
			if i > 0 && next()%4 == 0 {
				tos, ws := p.OutEdges(i - 1)
				if !slices.Contains(tos, int32(i)) {
					p.OutTo, p.OutW = append(p.OutTo, tos...), append(p.OutW, ws...)
					p.OutOff[i+1] = int64(len(p.OutTo))
					continue
				}
			}
			lo, span, holes := next()%n, next()%(n+1), next()
			for t := lo; t < min(n, lo+span); t++ {
				if t != i && holes>>((t-lo)%8)&1 == 0 {
					p.OutTo, p.OutW = append(p.OutTo, int32(t)), append(p.OutW, palette[next()%len(palette)])
				}
			}
			p.OutOff[i+1] = int64(len(p.OutTo))
		}
		naiveIDs, naiveWs := make([][]int32, n), make([][]float64, n)
		for i := 0; i < n; i++ {
			tos, ws := p.OutEdges(i)
			for k, t := range tos {
				naiveIDs[t], naiveWs[t] = append(naiveIDs[t], int32(i)), append(naiveWs[t], ws[k])
			}
		}
		s := p.Symmetric()
		var stored int
		for c := 0; c < n; c++ {
			ids, ws := s.InEdges(c)
			if !slices.Equal(ids, naiveIDs[c]) || !slices.EqualFunc(expandRun(t, nil, ids, ws), naiveWs[c], sameBits) {
				t.Fatalf("InEdges(%d) = %v %v, naive transpose %v %v", c, ids, ws, naiveIDs[c], naiveWs[c])
			}
			if c == 0 || !slices.Equal(naiveIDs[c], naiveIDs[c-1]) {
				stored += len(naiveIDs[c])
			}
		}
		if len(s.in.ids) != stored {
			t.Fatalf("in-CSR stores %d ids, want %d", len(s.in.ids), stored)
		}
		if want, _ := wantInWeights(p); len(s.in.w) != want {
			t.Fatalf("in-CSR stores %d weights, want %d", len(s.in.w), want)
		}
		checkOutEdgesShared(t, "fuzz", p)
	})
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
