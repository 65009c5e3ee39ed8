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
	refined, stats, err := RefinePartition(g, initial, RefineConfig{Config: cfg})
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
	refined, _, err := RefinePartition(g, initial, RefineConfig{Config: cfg, MaxPasses: 20})
	if err != nil {
		t.Fatal(err)
	}
	again, stats, err := RefinePartition(g, refined, RefineConfig{Config: cfg, MaxPasses: 20})
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
				refined, _, err := RefinePartition(g, initial, RefineConfig{Config: cfg})
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
	refined, _, err := RefinePartition(g, initial, RefineConfig{Config: cfg})
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
	refined, stats, err := RefinePartition(g, initial, RefineConfig{Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Moves != 0 || refined.PCN.NumClusters != 2 {
		t.Errorf("moves=%d clusters=%d; want 0 moves, 2 clusters", stats.Moves, refined.PCN.NumClusters)
	}
}

func TestRefinePartitionErrors(t *testing.T) {
	g := snn.FullyConnected(2, 2)
	res, err := Partition(g, PartitionConfig{Constraints: hw.Constraints{NeuronsPerCore: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := RefinePartition(g, res, RefineConfig{}); err == nil {
		t.Error("zero CON_npc must fail")
	}
	bad := &Result{PCN: res.PCN, ClusterOf: res.ClusterOf[:1]}
	if _, _, err := RefinePartition(g, bad, RefineConfig{Config: PartitionConfig{Constraints: hw.Constraints{NeuronsPerCore: 2}}}); err == nil {
		t.Error("short assignment must fail")
	}
}
