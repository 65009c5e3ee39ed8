package metrics

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"snnmap/internal/geom"
	"snnmap/internal/hw"
	"snnmap/internal/pcn"
	"snnmap/internal/place"
	"snnmap/internal/snn"
)

// randomMetricsWorkload builds a random PCN large enough to span many
// chunks of the parallel edge walk, with a random placement.
func randomMetricsWorkload(t testing.TB, seed int64, clusters, edges, side int) (*pcn.PCN, *place.Placement) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var b snn.GraphBuilder
	b.AddNeurons(clusters, -1)
	for e := 0; e < edges; e++ {
		u, v := rng.Intn(clusters), rng.Intn(clusters)
		if u != v {
			b.AddSynapse(u, v, rng.Float64()*9+0.5)
		}
	}
	res, err := pcn.Partition(b.Build(), pcn.PartitionConfig{Constraints: hw.Constraints{NeuronsPerCore: 1}})
	if err != nil {
		t.Fatal(err)
	}
	pl, err := place.Random(res.PCN.NumClusters, hw.MustMesh(side, side), rng)
	if err != nil {
		t.Fatal(err)
	}
	return res.PCN, pl
}

// TestEvaluateWorkersBitIdentical is the determinism contract of
// Options.Workers: every Summary field must be exactly equal — not
// approximately — for Workers in {1, 2, 7, 16}, across every congestion
// mode, including sampled mode with a forced stride.
func TestEvaluateWorkersBitIdentical(t *testing.T) {
	cost := hw.DefaultCostModel()
	for _, mode := range []struct {
		name string
		opts Options
	}{
		{"exact", Options{Congestion: CongestionExact}},
		{"auto", Options{}},
		{"sampled", Options{Congestion: CongestionSampled, SampleEdges: 100}},
		{"skip", Options{Congestion: CongestionSkip}},
	} {
		t.Run(mode.name, func(t *testing.T) {
			for seed := int64(1); seed <= 3; seed++ {
				p, pl := randomMetricsWorkload(t, seed, 300, 1500, 18)
				opts := mode.opts
				opts.Workers = 1
				want := Evaluate(p, pl, cost, opts)
				for _, workers := range []int{2, 7, 16} {
					opts.Workers = workers
					if got := Evaluate(p, pl, cost, opts); got != want {
						t.Fatalf("seed %d workers %d: %+v != sequential %+v", seed, workers, got, want)
					}
				}
			}
		})
	}
}

// TestCongestionGridWorkersBitIdentical asserts cell-exact grid equality
// across worker counts, for exact and strided accumulation.
func TestCongestionGridWorkersBitIdentical(t *testing.T) {
	p, pl := randomMetricsWorkload(t, 4, 300, 1500, 18)
	for _, stride := range []int{1, 7} {
		want := CongestionGrid(p, pl, stride, 1)
		for _, workers := range []int{2, 7, 16} {
			got := CongestionGrid(p, pl, stride, workers)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("stride %d workers %d: grid[%d] = %v != %v", stride, workers, i, got[i], want[i])
				}
			}
		}
	}
}

// TestSampledRescaleStrideConsistency guards against stride drift between
// Evaluate's in-pass sampled-weight accumulation and CongestionGrid's edge
// sampling: recomputing the rescaled grid from the shared sampleStride
// definition must reproduce Evaluate's MaxCongestion exactly. If the two
// edge enumerations ever disagree (different stride, different phase, or a
// different notion of edge index), the scale factor diverges and this
// fails.
func TestSampledRescaleStrideConsistency(t *testing.T) {
	cost := hw.DefaultCostModel()
	p, pl := randomMetricsWorkload(t, 5, 300, 1500, 18)
	opts := Options{Congestion: CongestionSampled, SampleEdges: 100}.withDefaults()
	stride := sampleStride(p, opts)
	if stride <= 1 {
		t.Fatalf("stride = %d; the workload must force sampling", stride)
	}
	got := Evaluate(p, pl, cost, opts)

	// Independent reconstruction, chunked exactly like Evaluate's walk so
	// the float grouping matches: the test pins the *enumeration*, the
	// chunking is shared via chunksOf.
	n := p.NumClusters
	k := chunksOf(n)
	var total, sampled float64
	for ci := 0; ci < k; ci++ {
		var pt, ps float64
		for c := ci * n / k; c < (ci+1)*n/k; c++ {
			_, ws := p.OutEdges(c)
			for kk, w := range ws {
				pt += w
				if (p.OutOff[c]+int64(kk))%int64(stride) == 0 {
					ps += w
				}
			}
		}
		total += pt
		sampled += ps
	}
	grid := CongestionGrid(p, pl, stride, 1)
	if sampled > 0 {
		scale := total / sampled
		for i := range grid {
			grid[i] *= scale
		}
	}
	if want := maxOf(grid); got.MaxCongestion != want {
		t.Fatalf("MaxCongestion = %v, reconstruction = %v (stride %d)", got.MaxCongestion, want, stride)
	}
}

// TestEvaluateZeroClustersAllWorkerCounts pins the degenerate walk.
func TestEvaluateZeroClustersAllWorkerCounts(t *testing.T) {
	var b snn.GraphBuilder
	b.AddNeurons(1, -1)
	res, err := pcn.Partition(b.Build(), pcn.PartitionConfig{Constraints: hw.Constraints{NeuronsPerCore: 1}})
	if err != nil {
		t.Fatal(err)
	}
	pl, err := place.New(res.PCN.NumClusters, hw.MustMesh(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 1, 16} {
		s := Evaluate(res.PCN, pl, hw.DefaultCostModel(), Options{Workers: workers})
		if s != (Summary{}) {
			t.Fatalf("workers %d: edgeless summary = %+v, want zero", workers, s)
		}
	}
}

// BenchmarkEvaluateWorkers measures the parallel edge walk's scaling on a
// congestion-heavy workload (exact grids dominate the cost).
func BenchmarkEvaluateWorkers(b *testing.B) {
	p, pl := randomMetricsWorkload(b, 6, 3000, 60000, 55)
	cost := hw.DefaultCostModel()
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				Evaluate(p, pl, cost, Options{Congestion: CongestionExact, Workers: workers})
			}
		})
	}
}

// naiveCongestionGrid is the stamping oracle: w·Expe(at, src, dst) added
// cell by cell over the whole mesh for every stride-th edge in CSR order,
// per evaluation chunk and merged in chunk order like CongestionGrid.
func naiveCongestionGrid(p *pcn.PCN, pl *place.Placement, stride int) []float64 {
	mesh := pl.Mesh
	grid := make([]float64, mesh.Cores())
	n := p.NumClusters
	k := chunksOf(n)
	for ci := 0; ci < k; ci++ {
		part := make([]float64, mesh.Cores())
		for c := ci * n / k; c < (ci+1)*n/k; c++ {
			tos, ws := p.OutEdges(c)
			for kk, to := range tos {
				if (p.OutOff[c]+int64(kk))%int64(stride) != 0 {
					continue
				}
				src, dst := pl.Of(c), pl.Of(int(to))
				box := geom.Bounding(src, dst)
				for x := box.MinX; x < box.MaxX; x++ {
					for y := box.MinY; y < box.MaxY; y++ {
						at := geom.Point{X: x, Y: y}
						part[mesh.Index(at)] += ws[kk] * Expe(at, src, dst, mesh)
					}
				}
			}
		}
		for i, v := range part {
			grid[i] += v
		}
	}
	return grid
}

// TestCongestionGridMatchesNaiveOracle pins the row-sliced stamping and the
// dense shape table to the cell-by-cell definition, bit for bit: all four
// sign quadrants, straight (dx=0 / dy=0) boxes, boxes touching every mesh
// border, shapes inside and outside the table, strides {1, 3} and workers
// {1, 2, 7}.
func TestCongestionGridMatchesNaiveOracle(t *testing.T) {
	const side = expeTableSide + 8
	mesh := hw.MustMesh(side, side)
	last := side - 1
	T := expeTableSide
	boxes := [][2]geom.Point{
		// Border to border: every quadrant, every border, outside the table.
		{{X: 0, Y: 0}, {X: last, Y: 4}}, {{X: last, Y: last}, {X: 0, Y: last - 4}},
		{{X: 0, Y: last}, {X: 4, Y: 0}}, {{X: last, Y: 0}, {X: last - 4, Y: last}},
		// Straight boxes along each border and through the middle.
		{{X: 0, Y: 0}, {X: 0, Y: last}}, {{X: last, Y: last}, {X: last, Y: 0}},
		{{X: 0, Y: 0}, {X: last, Y: 0}}, {{X: last, Y: last}, {X: 0, Y: last}},
		{{X: 40, Y: 7}, {X: 40, Y: 2}}, {{X: 9, Y: 40}, {X: 30, Y: 40}},
		// Small shapes in all four quadrants around one source.
		{{X: 40, Y: 40}, {X: 41, Y: 40}}, {{X: 40, Y: 40}, {X: 40, Y: 39}},
		{{X: 40, Y: 40}, {X: 37, Y: 45}}, {{X: 40, Y: 40}, {X: 44, Y: 33}},
		{{X: 40, Y: 40}, {X: 36, Y: 38}}, {{X: 40, Y: 40}, {X: 42, Y: 47}},
		// One side just inside and just outside the table.
		{{X: 2, Y: 3}, {X: 2 + T - 1, Y: 8}}, {{X: 2, Y: 3}, {X: 2 + T, Y: 8}},
		{{X: 70, Y: T + 5}, {X: 66, Y: 6}}, {{X: 70, Y: T + 5}, {X: 66, Y: 5}}, // dy = T−1, T
	}
	rng := rand.New(rand.NewSource(8))
	cluster := map[geom.Point]int{}
	var cells []geom.Point
	id := func(pt geom.Point) int {
		c, ok := cluster[pt]
		if !ok {
			c = len(cells)
			cluster[pt] = c
			cells = append(cells, pt)
		}
		return c
	}
	type edge struct{ from, to int }
	var edges []edge
	for _, bx := range boxes {
		edges = append(edges, edge{id(bx[0]), id(bx[1])})
	}
	var b snn.GraphBuilder
	b.AddNeurons(len(cells), -1)
	for _, e := range edges {
		b.AddSynapse(e.from, e.to, rng.Float64()*9+0.5)
	}
	res, err := pcn.Partition(b.Build(), pcn.PartitionConfig{Constraints: hw.Constraints{NeuronsPerCore: 1}})
	if err != nil {
		t.Fatal(err)
	}
	boxP := res.PCN
	boxPl, err := place.New(boxP.NumClusters, mesh)
	if err != nil {
		t.Fatal(err)
	}
	for c, pt := range cells {
		boxPl.Assign(c, int32(mesh.Index(pt)))
	}
	randP, randPl := randomMetricsWorkload(t, 9, 300, 1500, 18)

	for _, tc := range []struct {
		name string
		p    *pcn.PCN
		pl   *place.Placement
	}{{"boxes", boxP, boxPl}, {"random", randP, randPl}} {
		for _, stride := range []int{1, 3} {
			want := naiveCongestionGrid(tc.p, tc.pl, stride)
			for _, workers := range []int{1, 2, 7} {
				got := CongestionGrid(tc.p, tc.pl, stride, workers)
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("%s stride %d workers %d: grid[%d] = %v, oracle %v", tc.name, stride, workers, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestExpeTableBounded checks the accumulator keeps DP grids only for
// shapes inside the compile-time table and recomputes larger ones.
func TestExpeTableBounded(t *testing.T) {
	const side = expeTableSide + 16
	var a expeAccumulator
	grid := make([]float64, side*side)
	kept := func() (n int) {
		for _, g := range a.table {
			if g != nil {
				n++
			}
		}
		return n
	}
	a.accumulate(grid, side, cellXY{}, cellXY{x: side - 1, y: side - 1}, 1)
	a.accumulate(grid, side, cellXY{}, cellXY{x: 3, y: expeTableSide}, 1)
	if n := kept(); n != 0 {
		t.Fatalf("%d oversized grids were kept", n)
	}
	for i := 0; i < 8; i++ {
		a.accumulate(grid, side, cellXY{}, cellXY{x: int32(5 + i%2), y: int32(expeTableSide - 1 - (i/2)%2)}, 1)
	}
	if n := kept(); n != 4 {
		t.Fatalf("table keeps %d grids for 4 distinct shapes", n)
	}
	if g := a.table[5*expeTableSide+expeTableSide-1]; len(g) != 6*expeTableSide {
		t.Fatalf("shape (5,%d) grid has %d cells, want %d", expeTableSide-1, len(g), 6*expeTableSide)
	}
}
