package metrics

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"runtime"
	"testing"

	"snnmap/internal/curve"
	"snnmap/internal/hw"
	"snnmap/internal/mapping"
	"snnmap/internal/obs"
	"snnmap/internal/par"
	"snnmap/internal/pcn"
	"snnmap/internal/place"
	"snnmap/internal/snn"
)

// perTargetGrid is the exact congestion grid with every target through
// propagate: CongestionGrid's chunks, each accumulated into a cleared
// full-mesh grid and merged whole in chunk order. Within a chunk it follows
// the exact grid's summation grouping (stencilStretch): the targets of a
// stretch are propagated in target order into a cleared grid of their own,
// which is then added whole to the chunk's. It also returns the cells the
// exact grid sweeps: propagate's boxes for a target alone, and for a stretch
// target the boxes propagate would sweep for four sources at the corners of
// the run's sources' bounding box, since a stencil extends each target's
// boxes to it.
func perTargetGrid(p *pcn.PCN, pl *place.Placement) ([]float64, int64) {
	mesh, pos := pl.Mesh, clusterCoords(pl)
	cores := mesh.Cores()
	grid, scratch, stretch := make([]float64, cores), make([]float64, cores), make([]float64, cores)
	in := p.Symmetric()
	n := p.NumClusters
	k := par.Chunks(n)
	var s sweep
	var cells int64
	for ci := 0; ci < k; ci++ {
		clear(scratch)
		lo, hi := ci*n/k, (ci+1)*n/k
		for t := lo; t < hi; t++ {
			from, ws := in.InEdges(t)
			if len(from) == 0 {
				continue
			}
			e := stencilStretch(in, pos, lo, hi, t)
			if e == t {
				cells += s.propagate(scratch, mesh.Cols, pos, pos[t], from, ws)
				continue
			}
			b := pos[from[0]]
			x0, x1, y0, y1 := b.x, b.x, b.y, b.y
			for _, f := range from {
				x0, x1, y0, y1 = min(x0, pos[f].x), max(x1, pos[f].x), min(y0, pos[f].y), max(y1, pos[f].y)
			}
			corners := []cellXY{{x0, y0}, {x0, y1}, {x1, y0}, {x1, y1}}
			clear(stretch)
			for ; t < e; t++ {
				from, ws := in.InEdges(t)
				s.propagate(stretch, mesh.Cols, pos, pos[t], from, ws)
				cells += s.propagate(nil, mesh.Cols, corners, pos[t], []int32{0, 1, 2, 3}, ws)
			}
			for i, v := range stretch {
				scratch[i] += v
			}
			t--
		}
		for i, v := range scratch {
			grid[i] += v
		}
	}
	return grid, cells
}

// stencilStretch is the exact grid's grouping as a function of the in-rows
// and positions alone: the end of the stretch that target t of chunk
// lo..hi-1 starts, or t. Targets with no in-row are passed over. t starts a
// stretch when it and the target before it read one slice with a finite
// non-negative broadcast weight each and the target before that did not
// (t is a run's second target); the stretch is the targets from t on that
// read the slice with t's weight, and it is taken when the sources' bounding
// box holds at most 4·|S| cells and the box of sources and stretch at most
// 4·(|S|+|T|).
func stencilStretch(in *pcn.Symmetric, pos []cellXY, lo, hi, t int) int {
	broadcast := func(ws []float64) bool {
		return len(ws) == 1 && ws[0] >= 0 && ws[0] <= math.MaxFloat64
	}
	same := func(a, b []int32) bool { return len(a) == len(b) && &a[0] == &b[0] }
	prev := func(c int) int { // the target before c with an in-row, or -1
		for c--; c >= lo; c-- {
			if from, _ := in.InEdges(c); len(from) > 0 {
				return c
			}
		}
		return -1
	}
	from, ws := in.InEdges(t)
	p := prev(t)
	if !broadcast(ws) || p < 0 {
		return t
	}
	if pf, pw := in.InEdges(p); !broadcast(pw) || !same(pf, from) {
		return t
	}
	if pp := prev(p); pp >= 0 {
		if ppf, ppw := in.InEdges(pp); broadcast(ppw) && same(ppf, from) {
			return t
		}
	}
	box := func(cells []cellXY) int {
		x0, x1, y0, y1 := cells[0].x, cells[0].x, cells[0].y, cells[0].y
		for _, c := range cells {
			x0, x1, y0, y1 = min(x0, c.x), max(x1, c.x), min(y0, c.y), max(y1, c.y)
		}
		return int(x1-x0+1) * int(y1-y0+1)
	}
	var cells []cellXY
	for _, f := range from {
		cells = append(cells, pos[f])
	}
	if box(cells) > 4*len(from) {
		return t
	}
	e := t
	for ; e < hi; e++ {
		if ef, ew := in.InEdges(e); len(ef) == 0 || !same(ef, from) || len(ew) != 1 || ew[0] != ws[0] {
			break
		}
		cells = append(cells, pos[e])
	}
	if box(cells) > 4*(len(from)+e-t) {
		return t
	}
	return e
}

// evaluateSpan runs Evaluate with an observer and returns the Summary with
// the arguments of its metrics.evaluate span.
func evaluateSpan(p *pcn.PCN, pl *place.Placement, opts Options) (Summary, map[string]float64) {
	sink := &evalSink{}
	opts.Obs = obs.New(obs.Config{Sink: sink})
	s := Evaluate(p, pl, hw.DefaultCostModel(), opts)
	return s, sink.args
}

// layout places a layered PCN of width clusters per layer on mesh by rule:
// "rows" cluster c on core c in row-major order, so that a layer beside its
// predecessor or wrapping across it; "interleave" the pair of layers 2i, 2i+1
// alternating cell by cell, so layer 2i+1's targets sit inside their sources'
// box. flip mirrors the rows (bit 1) and columns (bit 0), which puts the
// sources in every quadrant and the layers on all four borders.
func layout(t testing.TB, n, width int, mesh hw.Mesh, rule string, flip int) *place.Placement {
	t.Helper()
	pl, err := place.New(n, mesh)
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < n; c++ {
		idx := c
		if rule == "interleave" {
			l, i := c/width, c%width
			idx = (l/2)*2*width + 2*i + l%2
			if (l/2+1)*2*width > n { // an unpaired last layer keeps its row-major cells
				idx = c
			}
		}
		x, y := idx/mesh.Cols, idx%mesh.Cols
		if flip&2 != 0 {
			x = mesh.Rows - 1 - x
		}
		if flip&1 != 0 {
			y = mesh.Cols - 1 - y
		}
		pl.Assign(c, int32(x*mesh.Cols+y))
	}
	return pl
}

// rowShift moves every cluster of mesh row from to the same column of row to,
// which must be empty: the placement a failed row leaves after its clusters
// moved to a spare row at the far end of the mesh.
func rowShift(t testing.TB, pl *place.Placement, from, to int) *place.Placement {
	t.Helper()
	out := pl.Clone()
	cols := pl.Mesh.Cols
	for y := 0; y < cols; y++ {
		if c := pl.ClusterAt[from*cols+y]; c != place.None {
			out.Move(int(c), int32(to*cols+y))
		}
	}
	if err := out.Validate(); err != nil {
		t.Fatal(err)
	}
	return out
}

// sharedCase is one input of the shared in-run suite; runs says whether some
// target must be added from a run's fields (1), none may be (0), or either
// (-1).
type sharedCase struct {
	name string
	p    *pcn.PCN
	pl   *place.Placement
	runs int
}

func sharedCases(t *testing.T) []sharedCase {
	t.Helper()
	var cases []sharedCase
	for _, c := range rowCases(t) {
		runs := -1
		switch c.name {
		case "DNN_16M":
			runs = 1
		case "ragged", "random": // mixed-weight in-rows; random in-rows
			runs = 0
		}
		cases = append(cases, sharedCase{c.name, c.p, c.pl, runs})
	}
	dnn := cases[0].p
	mesh := hw.MeshFor(dnn.NumClusters)
	res, err := mapping.Map(dnn, mesh, mapping.Default())
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases, sharedCase{"DNN_16M/FD", dnn, res.Placement, 1})
	rnd, err := place.Random(dnn.NumClusters, mesh, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	// Each 64-source run spans the mesh: the bounding-box guard falls back.
	cases = append(cases, sharedCase{"DNN_16M/random", dnn, rnd, 0})

	// 40 layers of 24 clusters on a 39×26 mesh: a layer nearly fills a row
	// and wraps into the next one, so its targets sit beside, across and
	// (interleaved) inside their sources' box; the layers touch the left and
	// right borders, the first one the top or (rows mirrored) the bottom.
	const width = 24
	p, err := pcn.Expand(snn.SynthDNN("w24", 40, width*4096), pcn.DefaultPartition())
	if err != nil {
		t.Fatal(err)
	}
	small := hw.MustMesh(39, 26)
	for _, rule := range []string{"rows", "interleave"} {
		for flip := range 4 {
			pl := layout(t, p.NumClusters, width, small, rule, flip)
			cases = append(cases, sharedCase{fmt.Sprintf("w24/%s/flip%d", rule, flip), p, pl, 1})
		}
	}
	// Rows 0 and 5 failed and moved to the spare rows 38 and 37: runs with
	// one far source fail the guard, runs with one far target take the
	// fields with a tall R.
	pl := rowShift(t, rowShift(t, layout(t, p.NumClusters, width, small, "interleave", 0), 0, 38), 5, 37)
	cases = append(cases, sharedCase{"w24/rowshift", p, pl, 1})

	// Clusters 0..63 each send to all of 0..63, themselves included — a
	// self-edge pcn.PCN.Validate rejects but propagate sweeps, as one source
	// on its target — and 192 idle clusters make four targets a chunk.
	loops := &pcn.PCN{Name: "self-loops", NumClusters: 256, OutOff: make([]int64, 257)}
	for c := range 256 {
		if c < 64 {
			for to := range int32(64) {
				loops.OutTo = append(loops.OutTo, to)
				loops.OutW = append(loops.OutW, 1.5)
			}
		}
		loops.OutOff[c+1] = int64(len(loops.OutTo))
	}
	seq, err := place.Sequential(256, hw.MustMesh(16, 16))
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases, sharedCase{"self-loops", loops, seq, 1})
	return cases
}

// TestCongestionGridSharedRunsMatchPerTarget holds the exact grid, whose
// targets of a shared in-run are added from the run's fields and whose
// chunks merge only the rows they touched, to perTargetGrid bit for bit at
// workers 1, 2 and 7: DNN_16M on its HSC placement, after FD and on a random
// placement; dense, ragged (mixed-weight), residual, depthwise, defective
// and random inputs of the per-row suite; 24-cluster layers beside, across
// and inside their sources' box in all four reflections, and row-shifted.
// Evaluate's span must report the rule's count, exact_cells, equal to the
// exact grid's swept_cells and to perTargetGrid's count, integer for
// integer, and no more than Σ (dx+1)(dy+1) over the edges (evaluateWalk);
// and the same run_targets and stretches (run_tables + stencil_hits: which
// worker's memo holds a stencil depends on the schedule) at every worker
// count.
func TestCongestionGridSharedRunsMatchPerTarget(t *testing.T) {
	for _, c := range sharedCases(t) {
		want, cells := perTargetGrid(c.p, c.pl)
		_, box, _, _ := evaluateWalk(c.p, c.pl, hw.DefaultCostModel(), Options{Congestion: CongestionSkip})
		var first map[string]float64
		for _, workers := range []int{1, 2, 7} {
			got := CongestionGrid(c.p, c.pl, 1, workers)
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%s workers %d: grid[%d] = %v, per target %v", c.name, workers, i, got[i], want[i])
				}
			}
			_, args := evaluateSpan(c.p, c.pl, Options{Workers: workers})
			if swept := args["swept_cells"]; args["exact_cells"] != swept || swept != float64(cells) || cells > box {
				t.Fatalf("%s workers %d: rule counts %v cells, grid swept %v, per target %d, edge boxes hold %d",
					c.name, workers, args["exact_cells"], swept, cells, box)
			}
			if workers == 1 {
				first = args
			} else if args["run_targets"] != first["run_targets"] || stretches(args) != stretches(first) {
				t.Fatalf("%s workers %d: %v run targets from %v stretches; workers 1 %v from %v",
					c.name, workers, args["run_targets"], stretches(args), first["run_targets"], stretches(first))
			}
		}
		if tables := first["run_tables"]; c.runs == 1 && tables == 0 || c.runs == 0 && tables != 0 {
			t.Fatalf("%s: %v run tables, want some: %v", c.name, tables, c.runs == 1)
		}
		if (first["run_targets"] > 0) != (first["run_tables"] > 0) {
			t.Fatalf("%s: %v run targets from %v tables", c.name, first["run_targets"], first["run_tables"])
		}
	}
}

// stretches is the number of stretches an Evaluate span's grid added from
// stencils, built or memoised.
func stretches(args map[string]float64) float64 {
	return args["run_tables"] + args["stencil_hits"]
}

// TestCongestionGridSharedRunCounts pins the counters on DNN_16M's HSC
// placement: 63 dense runs of 64 targets, one run per chunk, each run's first
// target through propagate and the other 63 from a stencil. 15 geometries
// relative to R recur; the 64×64 mesh's memo holds a quarter grid, 1 024
// floats, which 8 of them fill, so 30 stencils are built and 33 memoised.
func TestCongestionGridSharedRunCounts(t *testing.T) {
	p, err := pcn.Expand(snn.DNN16M(), pcn.DefaultPartition())
	if err != nil {
		t.Fatal(err)
	}
	pl, err := mapping.InitialPlacement(p, hw.MeshFor(p.NumClusters), curve.Hilbert{})
	if err != nil {
		t.Fatal(err)
	}
	_, args := evaluateSpan(p, pl, Options{})
	if args["run_tables"] != 30 || args["stencil_hits"] != 33 || args["run_targets"] != 63*63 {
		t.Fatalf("%v run targets from %v stencils built and %v memoised, want %d from 30 and 33",
			args["run_targets"], args["run_tables"], args["stencil_hits"], 63*63)
	}
}

// TestGridScratchBound holds the grid's scratch to a scratch grid per worker,
// not a grid per chunk: on DNN_16M's HSC+FD placement (k = 64), every one of
// three CongestionGrid calls allocates less than a quarter of k·cores
// float64s at 2 workers and less than half at 7, where each worker's stencil
// memo and buffers add about as much again as its grid. A chunk done early
// waits for its turn rather than copying its rows, so no schedule can raise
// the allocation.
func TestGridScratchBound(t *testing.T) {
	p, err := pcn.Expand(snn.DNN16M(), pcn.DefaultPartition())
	if err != nil {
		t.Fatal(err)
	}
	mesh := hw.MeshFor(p.NumClusters)
	res, err := mapping.Map(p, mesh, mapping.Default()) // FD builds p.Symmetric()
	if err != nil {
		t.Fatal(err)
	}
	grids := uint64(par.Chunks(p.NumClusters) * mesh.Cores() * 8)
	for _, c := range []struct{ workers, share int }{{2, 4}, {7, 2}} {
		workers, bound := c.workers, grids/uint64(c.share)
		most := uint64(0)
		for range 3 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			CongestionGrid(p, res.Placement, 1, workers)
			runtime.ReadMemStats(&after)
			most = max(most, after.TotalAlloc-before.TotalAlloc)
		}
		if most >= bound {
			t.Fatalf("CongestionGrid at %d workers allocated %d bytes, want < %d", workers, most, bound)
		}
		t.Logf("workers %d: allocated at most %d bytes of a %d-byte bound", workers, most, bound)
	}
}

// TestStencilMemoMatchesMiss holds the exact grid to the grid with every
// stencil built afresh (the memo forced to miss) bit for bit at workers 1, 2
// and 7 on the shared in-run suite. Then one layered net, 40 layers of 24
// clusters one layer to a mesh row, is placed at two offsets of a 48×32
// mesh: its chunks cut the layers at offsets that repeat every fifth layer,
// so the memo hits at one worker, and each grid is the other shifted, bit
// for bit. Odd layers send thrice the weight, so each geometry recurs with
// two weights.
func TestStencilMemoMatchesMiss(t *testing.T) {
	same := func(name string, workers int, got, want []float64) {
		t.Helper()
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s workers %d: grid[%d] = %v with the memo, %v without", name, workers, i, got[i], want[i])
			}
		}
	}
	hits := int64(0)
	for _, c := range sharedCases(t) {
		pos := clusterCoords(c.pl)
		for _, workers := range []int{1, 2, 7} {
			got, counts := congestionGrid(c.p, pos, c.pl.Mesh, 1, workers, true)
			want, _ := congestionGrid(c.p, pos, c.pl.Mesh, 1, workers, false)
			same(c.name, workers, got, want)
			hits += counts.stencilHits
		}
	}
	if hits == 0 {
		t.Fatal("no stencil came from the memo on the shared in-run suite")
	}

	const width, ox, oy = 24, 5, 7
	net, err := pcn.Expand(snn.SynthDNN("w24", 40, width*4096), pcn.DefaultPartition())
	if err != nil {
		t.Fatal(err)
	}
	p := &pcn.PCN{Name: "w24/odd×3", NumClusters: net.NumClusters, OutOff: net.OutOff, OutTo: net.OutTo,
		OutW: make([]float64, len(net.OutW))}
	for c := range p.NumClusters {
		for e := p.OutOff[c]; e < p.OutOff[c+1]; e++ {
			p.OutW[e] = net.OutW[e] * float64(1+2*(c/width%2))
		}
	}
	mesh := hw.MustMesh(48, 32)
	at := func(dx, dy int) *place.Placement {
		pl, err := place.New(p.NumClusters, mesh)
		if err != nil {
			t.Fatal(err)
		}
		for c := range p.NumClusters {
			pl.Assign(c, int32((dx+c/width)*mesh.Cols+dy+c%width))
		}
		return pl
	}
	corner, shifted := at(0, 0), at(ox, oy)
	for _, workers := range []int{1, 2, 7} {
		a, counts := congestionGrid(p, clusterCoords(corner), mesh, 1, workers, true)
		b, _ := congestionGrid(p, clusterCoords(shifted), mesh, 1, workers, true)
		// Which worker meets a geometry again depends on the schedule at
		// workers > 1 (chunks dealt round robin to 7 never repeat a key).
		if workers == 1 && counts.stencilHits == 0 {
			t.Fatalf("%d stencils built, none from the memo", counts.runTables)
		}
		fresh, _ := congestionGrid(p, clusterCoords(shifted), mesh, 1, workers, false)
		same("shifted", workers, b, fresh)
		for x := range mesh.Rows {
			for y := range mesh.Cols {
				want := 0.0
				if x >= ox && y >= oy {
					want = a[(x-ox)*mesh.Cols+y-oy]
				}
				if got := b[x*mesh.Cols+y]; math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("workers %d: shifted grid (%d, %d) = %v, unshifted %v", workers, x, y, got, want)
				}
			}
		}
	}
}

// fanWorkload is 1 024 clusters on a 32×32 mesh, 64 to a chunk, in which
// every cluster at srcs sends to every cluster at dsts with weight 1.5 (one
// broadcast in-run): sources are clusters 0.., targets 64.., and the idle
// rest fill the free cells in row-major order.
func fanWorkload(t *testing.T, srcs, dsts [][2]int) (*pcn.PCN, *place.Placement) {
	t.Helper()
	const n = 1024
	p := &pcn.PCN{Name: "fan", NumClusters: n, OutOff: make([]int64, n+1)}
	for c := range n {
		if c < len(srcs) {
			for k := range dsts {
				p.OutTo = append(p.OutTo, int32(64+k))
				p.OutW = append(p.OutW, 1.5)
			}
		}
		p.OutOff[c+1] = int64(len(p.OutTo))
	}
	mesh := hw.MustMesh(32, 32)
	pl, err := place.New(n, mesh)
	if err != nil {
		t.Fatal(err)
	}
	for k, at := range srcs {
		pl.Assign(k, int32(at[0]*32+at[1]))
	}
	for k, at := range dsts {
		pl.Assign(64+k, int32(at[0]*32+at[1]))
	}
	free := 0
	for c := range n {
		if pl.PosOf[c] != place.None {
			continue
		}
		for pl.ClusterAt[free] != place.None {
			free++
		}
		pl.Assign(c, int32(free))
	}
	return p, pl
}

// TestSharedRunGuards pins which runs build fields, with the grid equal to
// perTargetGrid throughout: 16 sources on a 4×4 block feeding an 8×8 block
// beside it build one field set per chunk of targets (four); 4 sources on
// the corners of their targets' block break the 4·|S| bound on the sources'
// box alone, and 64 targets on every fourth row and column of the mesh the
// 4·(|S|+|T|) bound on R alone, so neither builds any.
func TestSharedRunGuards(t *testing.T) {
	block := func(x, y, rows, cols, step int) (cells [][2]int) {
		for i := range rows {
			for j := range cols {
				cells = append(cells, [2]int{x + i*step, y + j*step})
			}
		}
		return cells
	}
	var hollow [][2]int // the 8×8 block at (8, 8) without its corners
	for _, c := range block(8, 8, 8, 8, 1) {
		if (c[0] == 8 || c[0] == 15) && (c[1] == 8 || c[1] == 15) {
			continue
		}
		hollow = append(hollow, c)
	}
	for _, c := range []struct {
		name       string
		srcs, dsts [][2]int
		tables     float64
	}{
		{"compact", block(4, 4, 4, 4, 1), block(8, 4, 8, 8, 1), 4},
		{"sparse sources", [][2]int{{8, 8}, {8, 15}, {15, 8}, {15, 15}}, hollow, 0},
		{"spread targets", block(0, 0, 2, 8, 1), block(2, 1, 8, 8, 4), 0},
	} {
		p, pl := fanWorkload(t, c.srcs, c.dsts)
		want, _ := perTargetGrid(p, pl)
		got := CongestionGrid(p, pl, 1, 1)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s: grid[%d] = %v, per target %v", c.name, i, got[i], want[i])
			}
		}
		if _, args := evaluateSpan(p, pl, Options{}); args["run_tables"] != c.tables {
			t.Fatalf("%s: %v run tables, want %v", c.name, args["run_tables"], c.tables)
		}
	}
}

// FuzzCongestionGridSharedRuns draws a layered net — 2 to 9 layers of 1 to 40
// clusters, some ragged (a short last cluster, so mixed-weight in-rows) — a
// mesh at least as large as the net, and a compact (row-major or interleaved,
// any reflection), curve or random placement, and compares the exact grid
// with perTargetGrid bit for bit at workers 1 and 3.
func FuzzCongestionGridSharedRuns(f *testing.F) {
	f.Add(int64(1), uint8(5), uint8(24), uint8(3), uint8(0))
	f.Add(int64(2), uint8(9), uint8(7), uint8(0), uint8(5))
	f.Add(int64(3), uint8(3), uint8(40), uint8(11), uint8(8))
	f.Add(int64(4), uint8(6), uint8(13), uint8(200), uint8(9))
	f.Fuzz(func(t *testing.T, seed int64, layers, width, extra, rule uint8) {
		nl, wd := 2+int(layers)%8, 1+int(width)%40
		neurons := int64(wd) * 4096
		if extra%3 == 0 {
			neurons -= 4096 - 1 - int64(extra)*16%4095
		}
		p, err := pcn.Expand(snn.SynthDNN("fuzz", nl, neurons), pcn.DefaultPartition())
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		n := p.NumClusters
		side := int(math.Ceil(math.Sqrt(float64(n))))
		mesh := hw.MustMesh(side+rng.Intn(4), side+rng.Intn(6))
		var pl *place.Placement
		switch r := int(rule) % 10; {
		case r < 4:
			pl = layout(t, n, wd, mesh, "rows", r)
		case r < 8:
			pl = layout(t, n, wd, mesh, "interleave", r-4)
		case r == 8:
			pl, err = mapping.InitialPlacement(p, mesh, curve.Hilbert{})
		default:
			pl, err = place.Random(n, mesh, rng)
		}
		if err != nil {
			t.Fatal(err)
		}
		want, _ := perTargetGrid(p, pl)
		for _, workers := range []int{1, 3} {
			got := CongestionGrid(p, pl, 1, workers)
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%v rule %d workers %d: grid[%d] = %v, per target %v", mesh, rule%10, workers, i, got[i], want[i])
				}
			}
		}
	})
}

// checkRunFieldsBounded bounds the run fields a congestion-grid worker keeps
// (TestExpeTableBounded): over dense layers of 1 to 24 clusters, every R that
// is built holds at most 4·(|S|+|T|) cells, the buffer never exceeds twice
// the largest 5·|R|, and a fresh worker reallocates it O(log) times, not once
// per larger run.
func checkRunFieldsBounded(t *testing.T) {
	t.Helper()
	net := &snn.Net{Name: "growing"}
	net.Chain(snn.Layer{Name: "l0", Neurons: 4096}, 0, snn.Dense, 0)
	for w := int64(2); w <= 24; w++ {
		net.Chain(snn.Layer{Name: fmt.Sprintf("l%d", w), Neurons: w * 4096}, (w-1)*4096, snn.Dense, 0)
	}
	p, err := pcn.Expand(net, pcn.DefaultPartition())
	if err != nil {
		t.Fatal(err)
	}
	pl, err := mapping.InitialPlacement(p, hw.MeshFor(p.NumClusters), curve.Hilbert{})
	if err != nil {
		t.Fatal(err)
	}
	pos, in, n := clusterCoords(pl), p.Symmetric(), p.NumClusters
	walk := func(r *runFields, check bool) {
		largest, built := 0, 0
		for tg := 0; tg < n; tg++ {
			from, ws := in.InEdges(tg)
			if len(from) == 0 {
				continue
			}
			e, _ := r.stretch(tg, n, from, ws, in, pos)
			if e == tg {
				continue
			}
			r.build(from, ws[0], pos)
			if !check {
				continue
			}
			built++
			if cells, limit := r.h*r.w, 4*(len(from)+e-tg); cells > limit {
				t.Fatalf("target %d: R holds %d cells, bound %d", tg, cells, limit)
			}
			largest = max(largest, 5*r.h*r.w)
			if c := cap(r.buf); c > 2*largest {
				t.Fatalf("target %d: run buffer holds %d floats after runs of at most %d", tg, c, largest)
			}
		}
		if check && built < 20 {
			t.Fatalf("%d of 23 runs built fields", built)
		}
	}
	walk(&runFields{}, true)
	allocs := testing.AllocsPerRun(3, func() { walk(&runFields{}, false) })
	if limit := float64(bits.Len(uint(5 * 4 * 48))); allocs > limit {
		t.Fatalf("23 growing runs made %.0f allocations, want ≤ %.0f", allocs, limit)
	}
}
