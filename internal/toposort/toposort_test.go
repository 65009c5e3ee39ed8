package toposort

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"snnmap/internal/hw"
	"snnmap/internal/pcn"
	"snnmap/internal/snn"
)

func chainPCN(t *testing.T, n int) *pcn.PCN {
	t.Helper()
	g := snn.FullyConnected(n, 1)
	res, err := pcn.Partition(g, pcn.PartitionConfig{Constraints: hw.Constraints{NeuronsPerCore: 1}})
	if err != nil {
		t.Fatal(err)
	}
	return res.PCN
}

func TestSortChain(t *testing.T) {
	p := chainPCN(t, 5)
	seq := Sort(p)
	for i, s := range seq {
		if s != int32(i) {
			t.Fatalf("chain order: Seq = %v", seq)
		}
	}
	order := Order(p)
	for i, c := range order {
		if c != int32(i) {
			t.Fatalf("chain Order = %v", order)
		}
	}
}

func TestSortIsTotalOrder(t *testing.T) {
	p := chainPCN(t, 7)
	seq := Sort(p)
	seen := make([]bool, len(seq))
	for _, s := range seq {
		if s < 0 || int(s) >= len(seq) || seen[s] {
			t.Fatalf("Seq is not a permutation: %v", seq)
		}
		seen[s] = true
	}
}

func TestSortRespectsEdgesOnDAG(t *testing.T) {
	// Diamond: 0→1, 0→2, 1→3, 2→3; every edge must point forward.
	var b snn.GraphBuilder
	b.AddNeurons(4, -1)
	b.AddSynapse(0, 1, 1)
	b.AddSynapse(0, 2, 1)
	b.AddSynapse(1, 3, 1)
	b.AddSynapse(2, 3, 1)
	res, err := pcn.Partition(b.Build(), pcn.PartitionConfig{Constraints: hw.Constraints{NeuronsPerCore: 1}})
	if err != nil {
		t.Fatal(err)
	}
	p := res.PCN
	seq := Sort(p)
	for c := 0; c < p.NumClusters; c++ {
		tos, _ := p.OutEdges(c)
		for _, to := range tos {
			if seq[c] >= seq[to] {
				t.Errorf("edge %d→%d not forward: seq %d >= %d", c, to, seq[c], seq[to])
			}
		}
	}
	// Smallest-index tie-break: 1 before 2.
	if seq[1] >= seq[2] {
		t.Errorf("tie-break by index violated: seq[1]=%d seq[2]=%d", seq[1], seq[2])
	}
}

func TestSortHandlesCycle(t *testing.T) {
	// 0→1→2→0 plus 2→3: the cycle is broken at the smallest index.
	var b snn.GraphBuilder
	b.AddNeurons(4, -1)
	b.AddSynapse(0, 1, 1)
	b.AddSynapse(1, 2, 1)
	b.AddSynapse(2, 0, 1)
	b.AddSynapse(2, 3, 1)
	res, err := pcn.Partition(b.Build(), pcn.PartitionConfig{Constraints: hw.Constraints{NeuronsPerCore: 1}})
	if err != nil {
		t.Fatal(err)
	}
	seq := Sort(res.PCN)
	// All positions assigned exactly once.
	seen := make([]bool, 4)
	for _, s := range seq {
		if s < 0 || s > 3 || seen[s] {
			t.Fatalf("cycle broke total order: %v", seq)
		}
		seen[s] = true
	}
	// Algorithm 2 forces the smallest unordered index (0) first, then the
	// chain unrolls: 0,1,2,3.
	want := []int32{0, 1, 2, 3}
	for i, s := range seq {
		if s != want[i] {
			t.Fatalf("Seq = %v, want %v", seq, want)
		}
	}
}

func TestSortSelfContainedComponents(t *testing.T) {
	// Two disjoint 2-cycles: all clusters still get unique positions.
	var b snn.GraphBuilder
	b.AddNeurons(4, -1)
	b.AddSynapse(0, 1, 1)
	b.AddSynapse(1, 0, 1)
	b.AddSynapse(2, 3, 1)
	b.AddSynapse(3, 2, 1)
	res, err := pcn.Partition(b.Build(), pcn.PartitionConfig{Constraints: hw.Constraints{NeuronsPerCore: 1}})
	if err != nil {
		t.Fatal(err)
	}
	seq := Sort(res.PCN)
	seen := map[int32]bool{}
	for _, s := range seq {
		if seen[s] {
			t.Fatalf("duplicate position: %v", seq)
		}
		seen[s] = true
	}
}

func TestSortPermutationProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(30) + 1
		var b snn.GraphBuilder
		b.AddNeurons(n, -1)
		for e := 0; e < rng.Intn(3*n); e++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				b.AddSynapse(u, v, 1)
			}
		}
		res, err := pcn.Partition(b.Build(), pcn.PartitionConfig{Constraints: hw.Constraints{NeuronsPerCore: 1}})
		if err != nil {
			return false
		}
		seq := Sort(res.PCN)
		seen := make([]bool, len(seq))
		for _, s := range seq {
			if s < 0 || int(s) >= len(seq) || seen[s] {
				return false
			}
			seen[s] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestSortFastPathMatchesHeap pins the monotone identity fast path to the
// retained Kahn-heap oracle on random graphs — both the graphs that take the
// fast path (forward-only edges) and the ones that fall back.
func TestSortFastPathMatchesHeap(t *testing.T) {
	f := func(seed int64, forwardOnly bool) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(40) + 1
		var b snn.GraphBuilder
		b.AddNeurons(n, -1)
		for e := 0; e < rng.Intn(3*n); e++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if forwardOnly && u > v {
				u, v = v, u
			}
			if u != v {
				b.AddSynapse(u, v, 1)
			}
		}
		res, err := pcn.Partition(b.Build(), pcn.PartitionConfig{Constraints: hw.Constraints{NeuronsPerCore: 1}})
		if err != nil {
			return false
		}
		got, want := Sort(res.PCN), sortHeap(res.PCN)
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestSortExpandedMatchesHeap holds Sort to the Kahn-heap oracle on expanded
// nets, whose Monotone answer Expand records: feed-forward nets (recorded
// forward), a reservoir with back-edges and a net with a backward Conn
// (scanned). The recorded answer must equal the scan of the same edges in a
// PCN that carries no record.
func TestSortExpandedMatchesHeap(t *testing.T) {
	lsm, err := snn.Reservoir("lsm", snn.ReservoirConfig{Inputs: 2048, ReservoirNeurons: 40960, Readouts: 1024})
	if err != nil {
		t.Fatal(err)
	}
	back := snn.SynthDNN("back", 4, 5*4096)
	back.Connect(3, 1, 3, snn.Dense, 0)
	scanned := 0
	for _, n := range []*snn.Net{snn.DNN16M(), snn.CNN16M(), snn.ResNet(), snn.MobileNet(), lsm, back} {
		p, err := pcn.Expand(n, pcn.DefaultPartition())
		if err != nil {
			t.Fatal(err)
		}
		bare := &pcn.PCN{Name: p.Name, NumClusters: p.NumClusters, Neurons: p.Neurons, Synapses: p.Synapses,
			Layer: p.Layer, OutOff: p.OutOff, OutTo: p.OutTo, OutW: p.OutW}
		if p.Monotone() != bare.Monotone() {
			t.Errorf("%s: Monotone %v, scan %v", n.Name, p.Monotone(), bare.Monotone())
		}
		if !slices.Equal(Sort(p), sortHeap(p)) {
			t.Errorf("%s: Sort differs from the Kahn-heap oracle", n.Name)
		}
		if !p.Monotone() {
			scanned++
		}
	}
	if scanned == 0 {
		t.Error("every net is monotone: the heap path went untested")
	}
}

func TestMonotone(t *testing.T) {
	if !chainPCN(t, 6).Monotone() {
		t.Fatal("chain PCN must be monotone")
	}
	var b snn.GraphBuilder
	b.AddNeurons(3, -1)
	b.AddSynapse(2, 0, 1)
	res, err := pcn.Partition(b.Build(), pcn.PartitionConfig{Constraints: hw.Constraints{NeuronsPerCore: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if res.PCN.Monotone() {
		t.Fatal("backward edge must break monotonicity")
	}
}

func TestSortDeterminism(t *testing.T) {
	g := snn.FullyConnected(4, 3)
	res, err := pcn.Partition(g, pcn.PartitionConfig{Constraints: hw.Constraints{NeuronsPerCore: 2}})
	if err != nil {
		t.Fatal(err)
	}
	a := Sort(res.PCN)
	b := Sort(res.PCN)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("Sort must be deterministic")
		}
	}
}
