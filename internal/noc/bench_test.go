package noc

import (
	"context"
	"math/rand"
	"testing"

	"snnmap/internal/hw"
	"snnmap/internal/pcn"
	"snnmap/internal/place"
	"snnmap/internal/snn"
)

// longTailWorkload builds the compaction stress case: ~2000 single-spike
// trains that exhaust on the first few injection waves, plus one heavy edge
// that keeps injecting for thousands of cycles afterwards. Without train
// compaction every one of those waves re-scans the full train list.
func longTailWorkload(b testing.TB) (*pcn.PCN, *place.Placement) {
	b.Helper()
	rng := rand.New(rand.NewSource(5))
	const clusters = 400
	var gb snn.GraphBuilder
	gb.AddNeurons(clusters, -1)
	for e := 0; e < 2000; e++ {
		u, v := rng.Intn(clusters), rng.Intn(clusters)
		if u != v {
			gb.AddSynapse(u, v, 1)
		}
	}
	gb.AddSynapse(0, clusters-1, 3000) // the long tail
	res, err := pcn.Partition(gb.Build(), pcn.PartitionConfig{Constraints: hw.Constraints{NeuronsPerCore: 1}})
	if err != nil {
		b.Fatal(err)
	}
	pl, err := place.Random(res.PCN.NumClusters, hw.MustMesh(20, 20), rng)
	if err != nil {
		b.Fatal(err)
	}
	return res.PCN, pl
}

func BenchmarkSimulateLongTail(b *testing.B) {
	p, pl := longTailWorkload(b)
	cfg := Config{}
	for _, bench := range []struct {
		name string
		run  func() (Result, error)
	}{
		{"event", func() (Result, error) { return Simulate(p, pl, cfg) }},
		{"reference", func() (Result, error) { return simulateReference(context.Background(), p, pl, cfg) }},
	} {
		b.Run(bench.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := bench.run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSimulateSparse64x64 times a 64×64 mesh where only 64 source
// cores inject. The reference driver scans all 4096·5 queues every cycle;
// the calendar streams only the flits that depart.
func BenchmarkSimulateSparse64x64(b *testing.B) {
	p, pl := sparse64x64Workload(b)
	cfg := Config{}
	for _, bench := range []struct {
		name string
		run  func() (Result, error)
	}{
		{"event", func() (Result, error) { return Simulate(p, pl, cfg) }},
		{"reference", func() (Result, error) { return simulateReference(context.Background(), p, pl, cfg) }},
	} {
		b.Run(bench.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := bench.run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// denseWorkload fills a side×side mesh with identity-placed clusters where
// every core streams spikes half the mesh height downward (and one column
// over), so every row carries sustained vertical traffic.
func denseWorkload(b testing.TB, side int, spikes float64) (*pcn.PCN, *place.Placement) {
	b.Helper()
	mesh := hw.MustMesh(side, side)
	var gb snn.GraphBuilder
	gb.AddNeurons(side*side, -1)
	for r := 0; r < side; r++ {
		for c := 0; c < side; c++ {
			dst := ((r+side/2)%side)*side + (c+1)%side
			gb.AddSynapse(r*side+c, dst, spikes)
		}
	}
	res, err := pcn.Partition(gb.Build(), pcn.PartitionConfig{Constraints: hw.Constraints{NeuronsPerCore: 1}})
	if err != nil {
		b.Fatal(err)
	}
	pl, err := place.New(res.PCN.NumClusters, mesh)
	if err != nil {
		b.Fatal(err)
	}
	for c := 0; c < res.PCN.NumClusters; c++ {
		pl.Assign(c, int32(c))
	}
	return res.PCN, pl
}

// BenchmarkSimulateDense times the calendar on a dense all-cores workload.
func BenchmarkSimulateDense(b *testing.B) {
	p, pl := denseWorkload(b, 64, 4)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Simulate(p, pl, Config{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulateHotSpot times the calendar per wire traversal on the
// deep-queue hot spot (hotSpotWorkload: one port past 4096 flits).
func BenchmarkSimulateHotSpot(b *testing.B) {
	p, pl := hotSpotWorkload(b)
	b.ReportAllocs()
	var wire int64
	for i := 0; i < b.N; i++ {
		res, err := Simulate(p, pl, Config{})
		if err != nil {
			b.Fatal(err)
		}
		wire += res.WireTraversals
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(wire), "ns/traversal")
}

// sparse64x64Workload: 4096 clusters placed identically onto a 64×64 mesh,
// with 64 sources (every 8th row/column) each feeding four neighbors eight
// cores away, 48 spikes per edge.
func sparse64x64Workload(b testing.TB) (*pcn.PCN, *place.Placement) {
	b.Helper()
	const side = 64
	mesh := hw.MustMesh(side, side)
	var gb snn.GraphBuilder
	gb.AddNeurons(side*side, -1)
	for r := 4; r < side; r += 8 {
		for c := 4; c < side; c += 8 {
			src := r*side + c
			for _, d := range [][2]int{{-8, 0}, {8, 0}, {0, -8}, {0, 8}} {
				nr, nc := r+d[0], c+d[1]
				if nr >= 0 && nr < side && nc >= 0 && nc < side {
					gb.AddSynapse(src, nr*side+nc, 48)
				}
			}
		}
	}
	res, err := pcn.Partition(gb.Build(), pcn.PartitionConfig{Constraints: hw.Constraints{NeuronsPerCore: 1}})
	if err != nil {
		b.Fatal(err)
	}
	pl, err := place.New(res.PCN.NumClusters, mesh)
	if err != nil {
		b.Fatal(err)
	}
	for c := 0; c < res.PCN.NumClusters; c++ {
		pl.Assign(c, int32(c))
	}
	return res.PCN, pl
}
