package pcn

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"snnmap/internal/hw"
	"snnmap/internal/snn"
)

// scrambledPCN builds a graph with strong community structure whose neuron
// order interleaves the communities, so Algorithm 1's sequential walk
// produces a poor (high-cut) partition that refinement can fix.
func scrambledCommunities(t *testing.T, communities, size int, seed int64) *snn.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var b snn.GraphBuilder
	n := communities * size
	b.AddNeurons(n, -1)
	// Neuron i belongs to community i % communities (interleaved).
	member := func(comm, k int) int { return k*communities + comm }
	for comm := 0; comm < communities; comm++ {
		for e := 0; e < size*6; e++ {
			u := member(comm, rng.Intn(size))
			v := member(comm, rng.Intn(size))
			if u != v {
				b.AddSynapse(u, v, 1)
			}
		}
	}
	return b.Build()
}

func TestRefinePartitionReducesCut(t *testing.T) {
	g := scrambledCommunities(t, 4, 16, 1)
	cfg := PartitionConfig{Constraints: hw.Constraints{NeuronsPerCore: 16}}
	initial, err := Partition(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	refined, stats, err := RefinePartition(g, initial, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if stats.CutAfter > stats.CutBefore {
		t.Fatalf("refinement increased cut: %g → %g", stats.CutBefore, stats.CutAfter)
	}
	if stats.Moves == 0 {
		t.Error("interleaved communities should trigger moves")
	}
	// The reduction should be substantial for this structure.
	if stats.CutAfter > 0.7*stats.CutBefore {
		t.Errorf("cut only reduced %g → %g; expected a large drop", stats.CutBefore, stats.CutAfter)
	}
	if err := refined.PCN.Validate(); err != nil {
		t.Fatal(err)
	}
	// Capacity is preserved.
	for i, nn := range refined.PCN.Neurons {
		if int(nn) > 16 {
			t.Errorf("cluster %d overfull: %d neurons", i, nn)
		}
	}
	// Traffic conservation: cut + internal is invariant.
	before := initial.PCN.TotalWeight() + initial.PCN.InternalTraffic
	after := refined.PCN.TotalWeight() + refined.PCN.InternalTraffic
	if math.Abs(before-after) > 1e-9 {
		t.Errorf("traffic not conserved: %g vs %g", before, after)
	}
}

func TestRefinePartitionConvergesAndIsIdempotent(t *testing.T) {
	g := scrambledCommunities(t, 3, 12, 7)
	cfg := PartitionConfig{Constraints: hw.Constraints{NeuronsPerCore: 12}}
	initial, err := Partition(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	refined, _, err := RefinePartition(g, initial, cfg)
	if err != nil {
		t.Fatal(err)
	}
	again, stats, err := RefinePartition(g, refined, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Moves != 0 {
		t.Errorf("second refinement still moved %d neurons", stats.Moves)
	}
	if again.PCN.TotalWeight() != refined.PCN.TotalWeight() {
		t.Error("idempotent refinement changed the cut")
	}
}

// TestRefinePartitionDeterministic repeats one refinement and requires the
// same assignment every time, at every worker count: candidate clusters are
// examined in first-seen neighbour order, not map order.
func TestRefinePartitionDeterministic(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		g := scrambledCommunities(t, 8, 32, seed)
		var want []int32
		for _, workers := range []int{1, 4} {
			cfg := PartitionConfig{Constraints: hw.Constraints{NeuronsPerCore: 32}, Workers: workers}
			initial, err := Partition(g, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for rep := 0; rep < 20; rep++ {
				refined, _, err := RefinePartition(g, initial, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if want == nil {
					want = refined.ClusterOf
				} else if !slices.Equal(refined.ClusterOf, want) {
					t.Fatalf("seed %d, workers %d, repeat %d: ClusterOf differs from the first call", seed, workers, rep)
				}
			}
		}
	}
}

func TestRefinePartitionRespectsLayers(t *testing.T) {
	g := snn.FullyConnected(3, 6)
	cfg := PartitionConfig{Constraints: hw.Constraints{NeuronsPerCore: 3}, SplitAtLayers: true}
	initial, err := Partition(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	refined, _, err := RefinePartition(g, initial, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Every neuron must stay in a cluster of its own layer.
	for v := 0; v < g.NumNeurons; v++ {
		c := refined.ClusterOf[v]
		if refined.PCN.Layer[c] != g.Layer[v] {
			t.Fatalf("neuron %d (layer %d) landed in cluster %d (layer %d)",
				v, g.Layer[v], c, refined.PCN.Layer[c])
		}
	}
}

func TestRefinePartitionDoesNotEmptyClusters(t *testing.T) {
	// Two tightly connected neurons in separate clusters of size 1: moving
	// either would empty a cluster, so both must stay.
	var b snn.GraphBuilder
	b.AddNeurons(2, -1)
	b.AddSynapse(0, 1, 100)
	g := b.Build()
	cfg := PartitionConfig{Constraints: hw.Constraints{NeuronsPerCore: 1}}
	initial, err := Partition(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	refined, stats, err := RefinePartition(g, initial, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Moves != 0 || refined.PCN.NumClusters != 2 {
		t.Errorf("moves=%d clusters=%d; want 0 moves, 2 clusters", stats.Moves, refined.PCN.NumClusters)
	}
}

// TestRefinePartitionRejectsBadInput: RefinePartition must not trust its
// input. Missing or out-of-range input is an error, not a panic; occupancy
// comes from the assignment, not from a PCN it may no longer match; and an
// input cluster over CON_npc is refused rather than refined.
func TestRefinePartitionRejectsBadInput(t *testing.T) {
	g := scrambledCommunities(t, 5, 8, 3) // 40 neurons: clusters 16, 16, 8
	cfg := PartitionConfig{Constraints: hw.Constraints{NeuronsPerCore: 16}}
	in, err := Partition(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	edited := func(moves map[int]int32) *Result {
		of := slices.Clone(in.ClusterOf)
		for v, c := range moves {
			of[v] = c
		}
		return &Result{PCN: in.PCN, ClusterOf: of}
	}
	bad := []struct {
		name string
		in   *Result
		cfg  PartitionConfig
	}{
		{"nil result", nil, cfg},
		{"nil PCN", &Result{ClusterOf: in.ClusterOf}, cfg},
		{"cluster past the PCN", edited(map[int]int32{5: 99}), cfg},
		{"negative cluster", edited(map[int]int32{5: -1}), cfg},
		{"stale occupancy over CON_npc", edited(map[int]int32{16: 0, 17: 0}), cfg},
		{"input over a smaller CON_npc", in, PartitionConfig{Constraints: hw.Constraints{NeuronsPerCore: 4}}},
	}
	for _, c := range bad {
		if _, _, err := RefinePartition(g, c.in, c.cfg); err == nil {
			t.Errorf("%s: err = nil, want an error", c.name)
		}
	}

	// Two neurons moved into the half-full cluster without touching the
	// PCN: refinement proceeds on the recounted occupancy.
	out, _, err := RefinePartition(g, edited(map[int]int32{0: 2, 1: 2}), cfg)
	if err != nil {
		t.Fatal(err)
	}
	sizes := make([]int32, out.PCN.NumClusters)
	for _, c := range out.ClusterOf {
		sizes[c]++
	}
	if !slices.Equal(sizes, out.PCN.Neurons) {
		t.Fatalf("PCN.Neurons %v disagrees with the assignment %v", out.PCN.Neurons, sizes)
	}
	for c, n := range sizes {
		if n > 16 {
			t.Errorf("cluster %d holds %d neurons, CON_npc 16", c, n)
		}
	}
}

func TestRefinePartitionErrors(t *testing.T) {
	g := snn.FullyConnected(2, 2)
	res, err := Partition(g, PartitionConfig{Constraints: hw.Constraints{NeuronsPerCore: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := RefinePartition(g, res, PartitionConfig{}); err == nil {
		t.Error("zero CON_npc must fail")
	}
	bad := &Result{PCN: res.PCN, ClusterOf: res.ClusterOf[:1]}
	if _, _, err := RefinePartition(g, bad, PartitionConfig{Constraints: hw.Constraints{NeuronsPerCore: 2}}); err == nil {
		t.Error("short assignment must fail")
	}
}
