package par_test

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"snnmap/internal/curve"
	"snnmap/internal/hw"
	"snnmap/internal/mapping"
	"snnmap/internal/metrics"
	"snnmap/internal/pcn"
	"snnmap/internal/snn"
)

// TestZeroWorkersIsOneWorker pins the one worker-count normalisation: no
// layer clamps its own Workers field any more, so 0 and 1 must reach par
// unchanged and give identical results through every public entry point.
func TestZeroWorkersIsOneWorker(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var b snn.GraphBuilder
	const neurons = 6000
	b.AddNeurons(neurons, -1)
	for i := 0; i < 40000; i++ {
		if u, v := rng.Intn(neurons), rng.Intn(neurons); u != v {
			b.AddSynapse(u, v, float64(rng.Intn(9)+1))
		}
	}
	g := b.Build()
	mesh := hw.MustMesh(40, 40)
	defects := hw.NewDefectMap(mesh)
	for _, idx := range []int{3, 57, 170, 300, 441} {
		defects.MarkDead(idx)
	}

	type outcome struct {
		PCN     *pcn.PCN
		Init    []int32
		Tuned   []int32
		Stats   mapping.FDStats
		Summary metrics.Summary
	}
	run := func(workers int) outcome {
		res, err := pcn.Partition(g, pcn.PartitionConfig{
			Constraints: hw.Constraints{NeuronsPerCore: 4},
			Workers:     workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		pl, err := mapping.InitialPlacementDefects(res.PCN, mesh, curve.Hilbert{}, defects, hw.Constraints{})
		if err != nil {
			t.Fatal(err)
		}
		out := outcome{PCN: res.PCN, Init: slices.Clone(pl.PosOf)}
		out.Stats, err = mapping.Finetune(res.PCN, pl, mapping.FDConfig{Defects: defects, MaxIterations: 6, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		out.Stats.Elapsed = 0
		out.Tuned = pl.PosOf
		out.Summary = metrics.Evaluate(res.PCN, pl, hw.DefaultCostModel(), metrics.Options{Workers: workers})
		return out
	}
	zero, one := run(0), run(1)
	// The lazily built adjacency views are caches, not results.
	for _, o := range []*outcome{&zero, &one} {
		o.PCN = &pcn.PCN{NumClusters: o.PCN.NumClusters, Neurons: o.PCN.Neurons, Synapses: o.PCN.Synapses,
			Layer: o.PCN.Layer, OutOff: o.PCN.OutOff, OutTo: o.PCN.OutTo, OutW: o.PCN.OutW,
			InternalTraffic: o.PCN.InternalTraffic}
	}
	if !reflect.DeepEqual(zero, one) {
		t.Errorf("Workers=0 and Workers=1 disagree:\n 0: %+v %+v\n 1: %+v %+v", zero.Stats, zero.Summary, one.Stats, one.Summary)
	}
	if zero.Stats.Swaps == 0 || zero.PCN.NumEdges() == 0 {
		t.Fatalf("degenerate workload: %+v, %d edges", zero.Stats, zero.PCN.NumEdges())
	}
}
