package metrics

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"testing"

	"snnmap/internal/curve"
	"snnmap/internal/geom"
	"snnmap/internal/hw"
	"snnmap/internal/mapping"
	"snnmap/internal/par"
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

// forceSampled returns limits under which every net whose exact grid sweeps
// more than one cell takes the sampled grid, of at most n edges.
func forceSampled(n int) limits { return limits{exactCells: 1, sampleEdges: n} }

// TestEvaluateWorkersBitIdentical is the determinism contract of
// Options.Workers: every Summary field must be exactly equal — not
// approximately — for Workers in {1, 2, 7, 16}, with the grid exact at any
// cell count, by the default rule, sampled at a forced stride, and
// skipped.
func TestEvaluateWorkersBitIdentical(t *testing.T) {
	cost := hw.DefaultCostModel()
	for _, mode := range []struct {
		name string
		opts Options
	}{
		{"exact", Options{limits: limits{exactCells: math.MaxInt64}}},
		{"auto", Options{}},
		{"sampled", Options{limits: forceSampled(100)}},
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

// rescaledSampledMax is Evaluate's sampled MaxCongestion rebuilt from the
// definitions: the traffic total in the walk's chunks (Evaluate's bits when
// no out-row is summed from a table), the weight of every edge whose global
// CSR index is divisible by stride in the grid's chunks, and the sampled grid
// scaled by their ratio. It fails t unless the grid's own sampled weight is
// that sum bit for bit.
func rescaledSampledMax(t *testing.T, p *pcn.PCN, pl *place.Placement, stride int) float64 {
	t.Helper()
	sumChunks := func(k int, sampled bool) float64 {
		n := p.NumClusters
		var sum float64
		for ci := 0; ci < k; ci++ {
			var part float64
			for c := ci * n / k; c < (ci+1)*n/k; c++ {
				_, ws := p.OutEdges(c)
				for kk, w := range ws {
					if !sampled || (p.OutOff[c]+int64(kk))%int64(stride) == 0 {
						part += w
					}
				}
			}
			sum += part
		}
		return sum
	}
	k := par.Chunks(p.NumClusters)
	total, sampled := sumChunks(k, false), sumChunks(k, true)
	grid, counts := congestionGrid(p, clusterCoords(pl), pl.Mesh, stride, 1, true)
	if math.Float64bits(counts.sampledWeight) != math.Float64bits(sampled) {
		t.Fatalf("grid's sampled weight %v, definition %v (stride %d)", counts.sampledWeight, sampled, stride)
	}
	scale := total / sampled
	for i := range grid {
		grid[i] *= scale
	}
	return maxOf(grid)
}

// TestSampledRescaleStrideConsistency guards against drift between the
// grid's sampled-weight sum and its edge sampling: the weight the sampled
// grid sums must be that of every edge whose global CSR index is divisible
// by the stride, and rescaling the grid by it must reproduce Evaluate's
// MaxCongestion exactly. A different stride, phase or notion of edge index
// in either fails this.
func TestSampledRescaleStrideConsistency(t *testing.T) {
	cost := hw.DefaultCostModel()
	p, pl := randomMetricsWorkload(t, 5, 300, 1500, 18)
	opts := Options{limits: forceSampled(100)}
	stride := sampleStride(p, opts.limits.sampleEdges)
	if stride <= 1 {
		t.Fatalf("stride = %d; the workload must force sampling", stride)
	}
	got := Evaluate(p, pl, cost, opts)
	if want := rescaledSampledMax(t, p, pl, stride); got.MaxCongestion != want {
		t.Fatalf("MaxCongestion = %v, reconstruction = %v (stride %d)", got.MaxCongestion, want, stride)
	}
}

// TestCongestionRuleBoundary pins CongestionAuto's rule at its limit: with
// the limit equal to the rule's count, the cells the exact grid sweeps, the
// grid is exact, bit for bit; one below it, the grid is the rescaled sampled
// one, bit for bit.
func TestCongestionRuleBoundary(t *testing.T) {
	cost := hw.DefaultCostModel()
	p, pl := randomMetricsWorkload(t, 8, 300, 1500, 18)
	_, cells, swept, rows := evaluateCounted(p, pl, cost, Options{})
	if cells != swept {
		t.Fatalf("rule counts %d cells, exact grid swept %d", cells, swept)
	}
	if rows != 0 {
		t.Fatalf("%d rows summed from a table; the reconstruction assumes none", rows)
	}
	const n = 100
	exact := maxOf(CongestionGrid(p, pl, 1, 1))
	sampled := rescaledSampledMax(t, p, pl, sampleStride(p, n))
	if exact == sampled {
		t.Fatalf("exact and sampled maxima are both %v; the boundary would not show", exact)
	}
	for _, c := range []struct {
		limit int64
		want  float64
	}{{cells, exact}, {cells - 1, sampled}} {
		for _, workers := range []int{1, 3} {
			got := Evaluate(p, pl, cost, Options{Workers: workers, limits: limits{exactCells: c.limit, sampleEdges: n}})
			if math.Float64bits(got.MaxCongestion) != math.Float64bits(c.want) {
				t.Fatalf("limit %d of %d cells, workers %d: MaxCongestion %v, want %v",
					c.limit, cells, workers, got.MaxCongestion, c.want)
			}
		}
	}
}

// TestCongestionRuleCountsSweptCells holds the rule at its default limit on
// DNN_268M. On its Circle placement the edges' boxes hold more cells than the
// limit but the exact grid sweeps fewer, so Evaluate's MaxCongestion is the
// exact grid's at workers 1 and 2; on a random placement the exact grid would
// sweep more than the limit (counted only: that grid is not run).
func TestCongestionRuleCountsSweptCells(t *testing.T) {
	p, err := pcn.Expand(snn.DNN268M(), pcn.DefaultPartition())
	if err != nil {
		t.Fatal(err)
	}
	mesh, cost := hw.MeshFor(p.NumClusters), hw.DefaultCostModel()
	pl, err := mapping.InitialPlacement(p, mesh, curve.Circle{})
	if err != nil {
		t.Fatal(err)
	}
	if _, box, _, _ := evaluateWalk(p, pl, cost, Options{Congestion: CongestionSkip}); box <= exactCells {
		t.Fatalf("Circle: edge boxes hold %d cells, want more than %d", box, exactCells)
	}
	for _, workers := range []int{1, 2} {
		got, cells, _, _ := evaluateCounted(p, pl, cost, Options{Workers: workers})
		want := maxOf(CongestionGrid(p, pl, 1, workers))
		if cells > exactCells || math.Float64bits(got.MaxCongestion) != math.Float64bits(want) {
			t.Fatalf("Circle workers %d: %d cells, MaxCongestion %v; exact grid %v", workers, cells, got.MaxCongestion, want)
		}
	}
	rnd, err := mapping.InitialPlacement(p, mesh, curve.Random{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	pos, n, k := clusterCoords(rnd), p.NumClusters, par.Chunks(p.NumClusters)
	var cells int64
	for ci := range k {
		var s sweep
		cells += s.exactChunk(p.Symmetric(), pos, mesh.Cols, ci*n/k, (ci+1)*n/k, false).swept
	}
	if cells <= exactCells {
		t.Fatalf("Random: exact grid sweeps %d cells, want more than %d", cells, exactCells)
	}
}

// TestSampledWeightWorkersBitIdentical holds a sampled Evaluate to its
// workers-1 bits on a 363×363 mesh, mostly empty.
func TestSampledWeightWorkersBitIdentical(t *testing.T) {
	cost := hw.DefaultCostModel()
	p, pl := randomMetricsWorkload(t, 9, 300, 1500, 363)
	opts := Options{limits: forceSampled(100)}
	want := Evaluate(p, pl, cost, opts)
	if want.MaxCongestion == 0 {
		t.Fatal("no congestion computed")
	}
	for _, workers := range []int{2, 7} {
		opts.Workers = workers
		if got := Evaluate(p, pl, cost, opts); got != want {
			t.Fatalf("workers %d: %+v != sequential %+v", workers, got, want)
		}
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
				Evaluate(p, pl, cost, Options{Workers: workers})
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
	k := par.Chunks(n)
	for ci := 0; ci < k; ci++ {
		part := make([]float64, mesh.Cores())
		for c := ci * n / k; c < (ci+1)*n/k; c++ {
			tos, ws := p.OutEdges(c)
			for kk, to := range tos {
				if (p.OutOff[c]+int64(kk))%int64(stride) != 0 {
					continue
				}
				src, dst := pl.Of(c), pl.Of(int(to))
				for x := min(src.X, dst.X); x <= max(src.X, dst.X); x++ {
					for y := min(src.Y, dst.Y); y <= max(src.Y, dst.Y); y++ {
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

// boxWorkload builds one cluster per distinct endpoint (ids in order of
// first appearance, so pure targets — zero out-degree — interleave with
// sources and fall on chunk boundaries), one edge per box with a random
// weight, and places every cluster on its endpoint. Integer weights are
// drawn from [1, 2¹²] and kept to Σw < 2²⁰ (see exactInputs); real ones
// from [0.5, 9.5).
func boxWorkload(t *testing.T, mesh hw.Mesh, boxes [][2]geom.Point, integer bool) (*pcn.PCN, *place.Placement) {
	t.Helper()
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
	wmax := min(1<<12, (1<<20-1)/max(len(edges), 1))
	for _, e := range edges {
		w := rng.Float64()*9 + 0.5
		if integer {
			w = float64(1 + rng.Intn(wmax))
		}
		b.AddSynapse(e.from, e.to, w)
	}
	res, err := pcn.Partition(b.Build(), pcn.PartitionConfig{Constraints: hw.Constraints{NeuronsPerCore: 1}})
	if err != nil {
		t.Fatal(err)
	}
	pl, err := place.New(res.PCN.NumClusters, mesh)
	if err != nil {
		t.Fatal(err)
	}
	for c, pt := range cells {
		pl.Assign(c, int32(mesh.Index(pt)))
	}
	return res.PCN, pl
}

// groupBoxes gives targets on every corner, every border and in the
// interior of a 24×24 mesh several sources each: three strictly inside every
// quadrant the mesh leaves, two on the target's row and two on its column,
// one each side — the tie rule's cases — and one target a single adjacent
// source. Every box has dx + dy ≤ 9.
func groupBoxes() [][2]geom.Point {
	const last = 23
	var boxes [][2]geom.Point
	for _, tgt := range []geom.Point{
		{X: 0, Y: 0}, {X: 0, Y: last}, {X: last, Y: 0}, {X: last, Y: last},
		{X: 0, Y: 11}, {X: last, Y: 12}, {X: 11, Y: 0}, {X: 12, Y: last}, {X: 11, Y: 12},
	} {
		for _, o := range [][2]int{{1, 2}, {3, 1}, {4, 5}} {
			for _, sg := range [][2]int{{-1, -1}, {-1, 1}, {1, -1}, {1, 1}} {
				boxes = append(boxes, [2]geom.Point{{X: tgt.X + sg[0]*o[0], Y: tgt.Y + sg[1]*o[1]}, tgt})
			}
		}
		for _, o := range [][2]int{{0, -2}, {0, 3}, {-3, 0}, {2, 0}} {
			boxes = append(boxes, [2]geom.Point{{X: tgt.X + o[0], Y: tgt.Y + o[1]}, tgt})
		}
	}
	boxes = append(boxes, [2]geom.Point{{X: 6, Y: 17}, {X: 5, Y: 17}})
	var in [][2]geom.Point
	for _, bx := range boxes {
		if s := bx[0]; s.X >= 0 && s.X <= last && s.Y >= 0 && s.Y <= last {
			in = append(in, bx)
		}
	}
	return in
}

// exactInputs is the condition under which the propagated grid equals the
// stamped one bit for bit, in any summation order: integer weights in
// [1, 2¹²], Σw < 2²⁰ and every edge's dx + dy ≤ 30. Each spike's Expe value
// at a router ℓ ≤ 30 steps from its source is a multiple of 2^−ℓ, so every
// product, every ½-step of the sweep and every partial sum of a cell is an
// integer multiple of 2^−30 no larger than Σw < 2²⁰: a numerator below 2⁵⁰,
// exactly representable in a float64's 53-bit significand. No operation
// rounds, so neither the order sources are summed in nor whether w
// multiplies the DP before or after it can show in a bit.

// TestCongestionGridMatchesNaiveOracle pins the propagated grid to the
// cell-by-cell definition: bit for bit on exactInputs — targets with groups
// of sources in every quadrant, on the tie row and column and on every
// border and corner — and within 1e-12 relative per cell on real weights:
// all four sign quadrants, straight (dx=0 / dy=0) boxes, boxes touching every
// mesh border, a row-shifted 290×256 placement whose repaired row has long
// edges in every quadrant, and a random graph. Strides {1, 3, above any
// cluster's degree, above |E|}; workers {1, 2, 7} bitwise equal to one
// another.
func TestCongestionGridMatchesNaiveOracle(t *testing.T) {
	const side = 72
	last := side - 1
	T := expeDenseSide
	boxP, boxPl := boxWorkload(t, hw.MustMesh(side, side), [][2]geom.Point{
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
		// One side just inside and just outside the stamping oracle's dense
		// table, then both.
		{{X: 2, Y: 3}, {X: 2 + T - 1, Y: 8}}, {{X: 2, Y: 3}, {X: 2 + T, Y: 8}},
		{{X: 70, Y: T + 5}, {X: 66, Y: 6}}, {{X: 70, Y: T + 5}, {X: 66, Y: 5}}, // dy = T−1, T
		{{X: 50, Y: 50}, {X: 50 - T + 1, Y: 50 - T + 1}}, {{X: 51, Y: 51}, {X: 51 - T, Y: 51 - T}},
		{{X: 60, Y: 1}, {X: 60 - T, Y: T}}, {{X: 1, Y: 60}, {X: T + 1, Y: 61 - T}},
	}, false)

	// Row 0 of a 256-wide placement failed and was shifted to the spare rows
	// at the far end of a 290×256 mesh: its clusters keep their row-1
	// neighbours, in both directions and on both sides, at the mesh's left
	// border, interior and right border. Boxes stay thin (≤ 4 cells one way)
	// because the oracle runs a full DP per cell.
	var shifted [][2]geom.Point
	for _, y := range []int{0, 100, 255} {
		moved := geom.Point{X: 289, Y: y}
		for _, d := range []int{-3, -1, 0, 2} {
			if y+d < 0 || y+d > 255 {
				continue
			}
			stay := geom.Point{X: 1, Y: y + d}
			shifted = append(shifted, [2]geom.Point{moved, stay}, [2]geom.Point{stay, moved})
		}
	}
	shifted = append(shifted,
		// Full-width flat boxes and one just outside the dense table both ways.
		[2]geom.Point{{X: 288, Y: 0}, {X: 286, Y: 255}}, [2]geom.Point{{X: 5, Y: 255}, {X: 6, Y: 0}},
		[2]geom.Point{{X: 120, Y: 90}, {X: 120 + T, Y: 90 - T}}, [2]geom.Point{{X: 120, Y: 90}, {X: 120 - T, Y: 90 + T}})
	shiftP, shiftPl := boxWorkload(t, hw.MustMesh(290, 256), shifted, false)

	randP, randPl := randomMetricsWorkload(t, 9, 300, 1500, 18)
	groupP, groupPl := boxWorkload(t, hw.MustMesh(24, 24), groupBoxes(), true)

	for _, tc := range []struct {
		name  string
		p     *pcn.PCN
		pl    *place.Placement
		exact bool
	}{
		{"boxes", boxP, boxPl, false}, {"rowshift", shiftP, shiftPl, false},
		{"random", randP, randPl, false}, {"groups", groupP, groupPl, true},
	} {
		// 23 exceeds every out-degree here, so whole clusters are skipped.
		for _, stride := range []int{1, 3, 23, int(tc.p.NumEdges()) + 7} {
			want := naiveCongestionGrid(tc.p, tc.pl, stride)
			seq := CongestionGrid(tc.p, tc.pl, stride, 1)
			for i, w := range want {
				if g := seq[i]; tc.exact && math.Float64bits(g) != math.Float64bits(w) ||
					!tc.exact && !(math.Abs(g-w) <= 1e-12*w) {
					t.Fatalf("%s stride %d: grid[%d] = %v, oracle %v", tc.name, stride, i, g, w)
				}
			}
			for _, workers := range []int{2, 7} {
				got := CongestionGrid(tc.p, tc.pl, stride, workers)
				for i := range seq {
					if math.Float64bits(got[i]) != math.Float64bits(seq[i]) {
						t.Fatalf("%s stride %d workers %d: grid[%d] = %v, workers 1 %v", tc.name, stride, workers, i, got[i], seq[i])
					}
				}
			}
		}
	}
}

// FuzzCongestionGrid propagates random exactInputs — up to 200 integer-weight
// edges between clusters placed bijectively on a mesh of at most 12×12 — and
// compares with the cell-by-cell definition bit for bit, exact and strided.
func FuzzCongestionGrid(f *testing.F) {
	f.Add(int64(1), uint8(11), uint8(11), uint8(143), uint8(200))
	f.Add(int64(2), uint8(0), uint8(9), uint8(9), uint8(40))
	f.Add(int64(3), uint8(6), uint8(2), uint8(3), uint8(5))
	f.Fuzz(func(t *testing.T, seed int64, rows, cols, clusters, edges uint8) {
		mesh := hw.MustMesh(1+int(rows)%12, 1+int(cols)%12)
		n := 1 + int(clusters)%mesh.Cores()
		rng := rand.New(rand.NewSource(seed))
		var b snn.GraphBuilder
		b.AddNeurons(n, -1)
		for e := 0; e < int(edges)%201; e++ {
			if u, v := rng.Intn(n), rng.Intn(n); u != v {
				b.AddSynapse(u, v, float64(1+rng.Intn(1<<12)))
			}
		}
		res, err := pcn.Partition(b.Build(), pcn.PartitionConfig{Constraints: hw.Constraints{NeuronsPerCore: 1}})
		if err != nil {
			t.Fatal(err)
		}
		pl, err := place.Random(res.PCN.NumClusters, mesh, rng)
		if err != nil {
			t.Fatal(err)
		}
		for _, stride := range []int{1, 3} {
			want := naiveCongestionGrid(res.PCN, pl, stride)
			got := CongestionGrid(res.PCN, pl, stride, 1)
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%v stride %d: grid[%d] = %v, oracle %v", mesh, stride, i, got[i], want[i])
				}
			}
		}
	})
}

// TestCongestionGridDNNMatchesStamping propagates the exact grid of an HSC
// placement of Expand(DNN_65K) and Expand(DNN_16M) — 4 096 clusters, 258 048
// edges, every target's 64 in-edges in one broadcast row — and compares it
// with the stamping oracle bit for bit at workers 1 and 2.
func TestCongestionGridDNNMatchesStamping(t *testing.T) {
	for _, net := range []*snn.Net{snn.DNN65K(), snn.DNN16M()} {
		p, err := pcn.Expand(net, pcn.DefaultPartition())
		if err != nil {
			t.Fatal(err)
		}
		side := int(math.Ceil(math.Sqrt(float64(p.NumClusters))))
		pl, err := mapping.InitialPlacement(p, hw.MustMesh(side, side), curve.Hilbert{})
		if err != nil {
			t.Fatal(err)
		}
		want := stampedCongestionGrid(p, pl, 1)
		for _, workers := range []int{1, 2} {
			got := CongestionGrid(p, pl, 1, workers)
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%s workers %d: grid[%d] = %v, stamped %v", net.Name, workers, i, got[i], want[i])
				}
			}
		}
	}
}

// TestExpeUniversalEqualsDP stamps every shape up to 96×96 — through the
// dense table below expeDenseSide, from the T and B rows above — and
// compares with the per-shape DP bit for bit, left-to-right and mirrored;
// T must also be bitwise symmetric, which is what lets one B serve the last
// row and the last column.
func TestExpeUniversalEqualsDP(t *testing.T) {
	const maxExt = 96
	x := newExpeTables(hw.MustMesh(maxExt+1, maxExt+1))
	for dx := 0; dx <= maxExt; dx++ {
		for dy := 0; dy <= maxExt; dy++ {
			want := expeGrid(dx, dy)
			got, mirrored := make([]float64, len(want)), make([]float64, len(want))
			x.accumulate(got, dy+1, cellXY{}, cellXY{x: int32(dx), y: int32(dy)}, 1)
			x.accumulate(mirrored, dy+1, cellXY{y: int32(dy)}, cellXY{x: int32(dx)}, 1)
			for i, e := range want {
				u, v := i/(dy+1), i%(dy+1)
				if math.Float64bits(got[i]) != math.Float64bits(e) {
					t.Fatalf("shape (%d,%d) cell (%d,%d) = %v, DP %v", dx, dy, u, v, got[i], e)
				}
				if m := mirrored[u*(dy+1)+dy-v]; math.Float64bits(m) != math.Float64bits(e) {
					t.Fatalf("shape (%d,%d) mirrored cell (%d,%d) = %v, DP %v", dx, dy, u, v, m, e)
				}
			}
		}
	}
	if x.k != maxExt {
		t.Fatalf("tables cover extent %d after stamping up to %d", x.k, maxExt)
	}
	for u := 0; u < x.k; u++ {
		for v := 0; v < u; v++ {
			if math.Float64bits(x.t[u*x.k+v]) != math.Float64bits(x.t[v*x.k+u]) {
				t.Fatalf("T[%d][%d] = %v != T[%d][%d] = %v", u, v, x.t[u*x.k+v], v, u, x.t[v*x.k+u])
			}
		}
	}
}

// TestExpeTableBounded bounds the one scratch buffer a congestion-grid
// worker keeps: over a run of ever larger boxes on a 128×128 mesh — targets
// with sources in all four quadrants, then a one-source group spanning the
// mesh — the box buffer never exceeds twice the largest four-quadrant union
// total, and a fresh worker reallocates it O(log) times, not once per larger
// box. The shared in-runs' fields are held to the same rule
// (checkRunFieldsBounded).
func TestExpeTableBounded(t *testing.T) {
	const side = 128
	mesh := hw.MustMesh(side, side)
	type group struct {
		t     cellXY
		from  []int32
		total int // Σ over the target's quadrants of (dx+1)·(dy+1)
	}
	var pos []cellXY
	var run []group
	for d := 1; d < side/2; d++ {
		tg := cellXY{x: side / 2, y: side / 2}
		g := group{t: tg, total: 4 * (d + 1) * (d + 1)}
		for _, o := range []cellXY{{-1, -1}, {-1, 1}, {1, -1}, {1, 1}} {
			g.from = append(g.from, int32(len(pos)))
			pos = append(pos, cellXY{x: tg.x + o.x*int32(d), y: tg.y + o.y*int32(d)})
		}
		run = append(run, g)
	}
	run = append(run, group{t: cellXY{x: side - 1, y: side - 1}, from: []int32{int32(len(pos))}, total: side * side})
	pos = append(pos, cellXY{})
	ws := []float64{1}

	grid := make([]float64, mesh.Cores())
	var s sweep
	largest := 0
	for _, g := range run {
		largest = max(largest, g.total)
		if cells := s.propagate(grid, side, pos, g.t, g.from, ws); cells != int64(g.total) {
			t.Fatalf("target %v swept %d cells, union boxes hold %d", g.t, cells, g.total)
		}
		if c := cap(s.box); c > 2*largest {
			t.Fatalf("box buffer holds %d floats after boxes of at most %d cells", c, largest)
		}
	}
	allocs := testing.AllocsPerRun(3, func() {
		var s sweep
		for _, g := range run {
			s.propagate(grid, side, pos, g.t, g.from, ws)
		}
	})
	if limit := float64(bits.Len(uint(side * side))); allocs > limit {
		t.Fatalf("%d growing boxes made %.0f allocations, want ≤ %.0f", len(run), allocs, limit)
	}
	checkRunFieldsBounded(t)
}
