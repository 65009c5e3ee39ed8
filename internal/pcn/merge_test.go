package pcn

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"snnmap/internal/hw"
	"snnmap/internal/obs"
	"snnmap/internal/snn"
)

// naiveMerge is mergeRow's oracle: no accumulator, no bitmap, no map — for
// every distinct target in ascending order it re-walks the whole row and sums
// that target's entries left to right. O(len²).
func naiveMerge(to []int32, w []float64) ([]int32, []float64) {
	var outTo []int32
	var outW []float64
	prev := int32(-1)
	for {
		next := int32(math.MaxInt32)
		for _, t := range to {
			if t > prev && t < next {
				next = t
			}
		}
		if next == math.MaxInt32 {
			return outTo, outW
		}
		var sum float64
		first := true
		for k, t := range to {
			if t != next {
				continue
			}
			if first {
				sum, first = w[k], false
			} else {
				sum += w[k]
			}
		}
		outTo, outW = append(outTo, next), append(outW, sum)
		prev = next
	}
}

// checkMergeRow runs one row through m and the oracle and compares exact
// float bits; it also demands the all-zero bitmap the next call relies on.
func checkMergeRow(t *testing.T, label string, m *rowMerger, to []int32, w []float64) {
	t.Helper()
	wantTo, wantW := naiveMerge(to, w)
	gotTo, gotW := slices.Clone(to), slices.Clone(w)
	d := m.mergeRow(gotTo, gotW)
	if d != len(wantTo) {
		t.Fatalf("%s: merged length %d, want %d", label, d, len(wantTo))
	}
	for i := 0; i < d; i++ {
		if gotTo[i] != wantTo[i] || math.Float64bits(gotW[i]) != math.Float64bits(wantW[i]) {
			t.Fatalf("%s: entry %d = (%d, %x), want (%d, %x)", label, i, gotTo[i], math.Float64bits(gotW[i]), wantTo[i], math.Float64bits(wantW[i]))
		}
	}
	for wi, word := range m.occ {
		if word != 0 {
			t.Fatalf("%s: occupancy word %d = %#x after the call", label, wi, word)
		}
	}
}

// roughWeights returns weights whose sum depends on the order of addition, so a
// wrong accumulation order shows in the last ulp.
func roughWeights(rng *rand.Rand, n int) []float64 {
	w := make([]float64, n)
	for i := range w {
		w[i] = math.Ldexp(rng.Float64()+0.1, rng.Intn(40)-20)
	}
	return w
}

func TestMergeRowMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{1, 2, 63, 64, 65, 4097} {
		m := &rowMerger{n: n}
		last := int32(n - 1)
		// Shapes that must not touch the accumulator: empty, single, strictly
		// ascending. One merger serves them all, so the nil check is cumulative.
		asc := make([]int32, 0, n)
		for i := 0; i < n; i += 1 + rng.Intn(3) {
			asc = append(asc, int32(i))
		}
		checkMergeRow(t, "empty", m, nil, nil)
		checkMergeRow(t, "single", m, []int32{last}, []float64{0.3})
		ascW := roughWeights(rng, len(asc))
		checkMergeRow(t, "ascending", m, asc, ascW)
		if m.acc != nil || m.occ != nil {
			t.Fatalf("n=%d: ascending rows allocated the accumulator", n)
		}
		if got := testing.AllocsPerRun(10, func() { m.mergeRow(asc, ascW) }); got != 0 {
			t.Fatalf("n=%d: ascending fast path allocates %v times", n, got)
		}

		// The same merger is reused for every following row.
		desc := slices.Clone(asc)
		slices.Reverse(desc)
		checkMergeRow(t, "descending", m, append(desc, 0), roughWeights(rng, len(desc)+1))
		dups := make([]int32, 17)
		for i := range dups {
			dups[i] = last
		}
		checkMergeRow(t, "all-duplicates", m, dups, roughWeights(rng, len(dups)))
		checkMergeRow(t, "ends", m, []int32{last, 0, last, 0, last, 0}, roughWeights(rng, 6))
		checkMergeRow(t, "pair", m, []int32{last, 0}, []float64{1, 2})
		for round := 0; round < 50; round++ {
			row := make([]int32, 1+rng.Intn(min(3*n, 1500)))
			for i := range row {
				row[i] = int32(rng.Intn(n))
			}
			checkMergeRow(t, "random", m, row, roughWeights(rng, len(row)))
		}
	}

	// Wide span: a short row whose touched words lie further apart than the
	// row is long takes the sort path; one that is long enough scans. Both on
	// one merger, both against the oracle.
	m := &rowMerger{n: 1 << 16}
	short := []int32{65535, 3, 40000, 3, 65535, 12, 3}
	checkMergeRow(t, "wide-span", m, short, roughWeights(rng, len(short)))
	long := make([]int32, 2000)
	for i := range long {
		long[i] = int32(rng.Intn(1 << 16))
	}
	checkMergeRow(t, "scan", m, long, roughWeights(rng, len(long)))
	checkMergeRow(t, "wide-span-again", m, short, roughWeights(rng, len(short)))
}

func FuzzMergeRow(f *testing.F) {
	f.Add([]byte{5, 1, 5, 0, 9, 5}, uint16(10))
	f.Add([]byte{0, 1, 2, 3}, uint16(4))
	f.Add([]byte{255, 0, 255, 0, 7}, uint16(4000))
	f.Fuzz(func(t *testing.T, data []byte, n uint16) {
		if n == 0 {
			return
		}
		// Two bytes per target so rows can span more words than they have
		// entries; the weight is derived from the position.
		to := make([]int32, len(data)/2)
		w := make([]float64, len(to))
		for i := range to {
			to[i] = int32((int(data[2*i])<<8 | int(data[2*i+1])) % int(n))
			w[i] = 1 / float64(3+i)
		}
		m := &rowMerger{n: int(n)}
		checkMergeRow(t, "fuzz", m, to, w)
		checkMergeRow(t, "fuzz-reuse", m, to, w)
	})
}

// crossEdges and buildCSR are the edge-list build this package used before
// csrFromAssignment, kept as the oracle: collect every cross-cluster synapse
// as a (from, to, w) triple, order the triples by (from, to) with a stable
// sort, and fold equal neighbours left to right.
func crossEdges(g *snn.Graph, clusterOf []int32, internal *float64) (from, to []int32, w []float64) {
	for u := 0; u < g.NumNeurons; u++ {
		cu := clusterOf[u]
		tos, ws := g.OutEdges(u)
		for k, v := range tos {
			cv := clusterOf[v]
			if cu == cv {
				*internal += ws[k]
				continue
			}
			from, to, w = append(from, cu), append(to, cv), append(w, ws[k])
		}
	}
	return from, to, w
}

func buildCSR(p *PCN, from, to []int32, w []float64) {
	idx := make([]int, len(from))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		ea, eb := idx[a], idx[b]
		if from[ea] != from[eb] {
			return from[ea] < from[eb]
		}
		return to[ea] < to[eb]
	})
	p.OutOff = make([]int64, p.NumClusters+1)
	p.OutTo, p.OutW = []int32{}, []float64{}
	for k, e := range idx {
		if k > 0 && from[idx[k-1]] == from[e] && to[idx[k-1]] == to[e] {
			p.OutW[len(p.OutW)-1] += w[e]
			continue
		}
		p.OutTo, p.OutW = append(p.OutTo, to[e]), append(p.OutW, w[e])
		p.OutOff[from[e]+1]++
	}
	for i := 0; i < p.NumClusters; i++ {
		p.OutOff[i+1] += p.OutOff[i]
	}
}

// aggregationGraph has many parallel synapses per cluster pair (a narrow
// locality band around 16-neuron clusters), so merged weights are sums of
// three and more terms and the order of addition is observable.
func aggregationGraph(t testing.TB) *snn.Graph {
	t.Helper()
	g, err := snn.RandomGraph(snn.RandomConfig{
		Neurons: 6000, AvgDegree: 12, LocalityBand: 0.01, LongRangeFrac: 0.05, MaxDensity: 1,
	}, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestCSRFromAssignmentEqualsEdgeList(t *testing.T) {
	g := aggregationGraph(t)
	cfg := PartitionConfig{Constraints: hw.Constraints{NeuronsPerCore: 16}}
	clusterOf, neurons, synapses, layers, err := assignClusters(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := &PCN{NumClusters: len(neurons), Neurons: neurons, Synapses: synapses, Layer: layers}
	from, to, w := crossEdges(g, clusterOf, &want.InternalTraffic)
	buildCSR(want, from, to, w)
	for _, workers := range []int{1, 2, 4, 7} {
		got := &PCN{NumClusters: len(neurons), Neurons: neurons, Synapses: synapses, Layer: layers}
		if cross := csrFromAssignment(got, g.OutOff, g.OutTo, g.OutW, clusterOf, workers); cross != int64(len(w)) {
			t.Fatalf("workers=%d: cross count %d, want %d", workers, cross, len(w))
		}
		samePCN(t, "neuron graph", want, got)
	}
	if 3*want.NumEdges() > int64(len(w)) {
		t.Fatalf("graph too sparse to test summation order: %d edges from %d synapses", want.NumEdges(), len(w))
	}

}

func TestUndirectedBitwiseSymmetric(t *testing.T) {
	g := aggregationGraph(t)
	cfg := PartitionConfig{Constraints: hw.Constraints{NeuronsPerCore: 16}}
	clusterOf, neurons, _, _, err := assignClusters(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Partition(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	views := map[string]*Undirected{
		"undirectedFromAssignment":           undirectedFromAssignment(g, clusterOf, len(neurons), 1),
		"undirectedFromAssignment/workers=4": undirectedFromAssignment(g, clusterOf, len(neurons), 4),
		"PCN.Undirected":                     res.PCN.Undirected(),
	}
	for name, u := range views {
		for i := 0; i+1 < len(u.Off); i++ {
			tos, ws := u.Neighbors(i)
			for k, j := range tos {
				back, _ := u.Neighbors(int(j))
				pos, ok := slices.BinarySearch(back, int32(i))
				if !ok {
					t.Fatalf("%s: %d→%d has no reverse entry", name, i, j)
				}
				if wb := u.W[u.Off[j]+int64(pos)]; math.Float64bits(wb) != math.Float64bits(ws[k]) {
					t.Fatalf("%s: W(%d,%d)=%x but W(%d,%d)=%x", name, i, j, math.Float64bits(ws[k]), j, i, math.Float64bits(wb))
				}
			}
		}
	}
}

// spanSink records every event an observer emits.
type spanSink struct{ events []obs.Event }

func (s *spanSink) Event(e obs.Event) { s.events = append(s.events, e) }
func (s *spanSink) Close() error      { return nil }

// TestPartitionFlatSpanCounts pins what the partition.flat span reports:
// edges is the merged PCN edge count, cross_synapses the raw count it was
// merged from.
func TestPartitionFlatSpanCounts(t *testing.T) {
	g := aggregationGraph(t)
	sink := &spanSink{}
	cfg := PartitionConfig{Constraints: hw.Constraints{NeuronsPerCore: 16}, Obs: obs.New(obs.Config{Sink: sink})}
	res, err := Partition(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var internal float64
	_, _, w := crossEdges(g, res.ClusterOf, &internal)
	want := map[string]float64{"clusters": float64(res.PCN.NumClusters), "edges": float64(res.PCN.NumEdges()), "cross_synapses": float64(len(w))}
	for _, e := range sink.events {
		if e.Kind != obs.KindEnd || e.Name != "partition.flat" {
			continue
		}
		for _, kv := range e.Args {
			if v, ok := want[kv.K]; ok && v == kv.V {
				delete(want, kv.K)
			}
		}
	}
	if len(want) != 0 {
		t.Fatalf("partition.flat span is missing or misreports %v (events: %+v)", want, sink.events)
	}
}
