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

// checkSymmetricEqualsUndirected asserts the merged out+transpose walk
// yields Undirected's adjacency entry for entry — ids and weight bits — and
// that Weight agrees with it for every connected pair and some unconnected
// ones. Undirected is the oracle here; FD itself never builds it.
func checkSymmetricEqualsUndirected(t *testing.T, name string, p *PCN) {
	t.Helper()
	u, s := p.Undirected(), p.Symmetric()
	var buf MergeBuf
	for c := 0; c < p.NumClusters; c++ {
		wantTo, wantW := u.Neighbors(c)
		to1, w1, to2, w2 := s.Neighbors(c, &buf)
		gotTo := append(append([]int32(nil), to1...), to2...)
		gotW := append(append([]float64(nil), w1...), w2...)
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
		checkSymmetricEqualsUndirected(t, "random", p)
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
	for _, net := range []*snn.Net{lsm, snn.MobileNet(), snn.ResNet()} {
		p, err := Expand(net, DefaultPartition())
		if err != nil {
			t.Fatal(err)
		}
		checkSymmetricEqualsUndirected(t, net.Name, p)
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
