package metrics

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"snnmap/internal/curve"
	"snnmap/internal/geom"
	"snnmap/internal/hw"
	"snnmap/internal/mapping"
	"snnmap/internal/obs"
	"snnmap/internal/pcn"
	"snnmap/internal/place"
	"snnmap/internal/snn"
)

// evalSink keeps the arguments of the last metrics.evaluate span end.
type evalSink struct{ args map[string]float64 }

func (s *evalSink) Event(e obs.Event) {
	if e.Name != "metrics.evaluate" || e.Kind != obs.KindEnd {
		return
	}
	s.args = map[string]float64{}
	for _, kv := range e.Args {
		s.args[kv.K] = kv.V
	}
}

func (s *evalSink) Close() error { return nil }

// evaluateCounted runs Evaluate with an observer and returns the Summary
// with the span's exact_cells, swept_cells and row_sums.
func evaluateCounted(p *pcn.PCN, pl *place.Placement, cost hw.CostModel, opts Options) (s Summary, exact, swept, rows int64) {
	sink := &evalSink{}
	opts.Obs = obs.New(obs.Config{Sink: sink})
	s = Evaluate(p, pl, cost, opts)
	return s, int64(sink.args["exact_cells"]), int64(sink.args["swept_cells"]), int64(sink.args["row_sums"])
}

// rowCase is one input of the per-row suite; rows says whether some out-row
// must be summed from a table.
type rowCase struct {
	name string
	p    *pcn.PCN
	pl   *place.Placement
	rows bool
}

func rowCases(t *testing.T) []rowCase {
	t.Helper()
	hsc := func(p *pcn.PCN, mesh hw.Mesh, d *hw.DefectMap) *place.Placement {
		pl, err := mapping.InitialPlacementDefects(p, mesh, curve.Hilbert{}, d, hw.Constraints{})
		if err != nil {
			t.Fatal(err)
		}
		return pl
	}
	expand := func(n *snn.Net) *pcn.PCN {
		p, err := pcn.Expand(n, pcn.DefaultPartition())
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	var cases []rowCase
	// 64-cluster layers on aligned 8×8 Hilbert blocks; 40-cluster layers,
	// whose rows fill ragged regions with holes in their boxes; and 3
	// clusters plus a 904-neuron one per layer, whose rows are mixed by the
	// last target's share and so walked.
	for _, c := range []struct {
		net  *snn.Net
		rows bool
	}{
		{snn.DNN16M(), true},
		{snn.SynthDNN("w40", 24, 40*4096), true},
		{snn.SynthDNN("ragged", 6, 3*4096+904), false},
		{snn.ResNet(), true},
		{snn.MobileNet(), true},
	} {
		p := expand(c.net)
		cases = append(cases, rowCase{c.net.Name, p, hsc(p, hw.MeshFor(p.NumClusters), nil), c.rows})
	}
	// DNN_16M around 3 % dead cores: the curve skips them, so rows split
	// around holes and some boxes pass 4·n.
	dnn := cases[0].p
	mesh := hw.MustMesh(68, 64)
	cases = append(cases, rowCase{"DNN_16M/defective", dnn, hsc(dnn, mesh, hw.InjectClustered(mesh, 0.03, 6, 1)), true})
	p, pl := randomMetricsWorkload(t, 11, 300, 1500, 18)
	cases = append(cases, rowCase{"random", p, pl, false})
	return cases
}

// integral reports whether every out-weight of p is an integer.
func integral(p *pcn.PCN) bool {
	for _, w := range p.OutW {
		if w != math.Trunc(w) {
			return false
		}
	}
	return true
}

// TestEvaluateRowSumsMatchWalk holds Evaluate, which sums each repeated
// dense out-row from a prefix table, to the per-edge walk it replaced
// (evaluateWalk) on dense, ragged, residual, depthwise, defective-mesh and
// random inputs, with the grid skipped, exact and sampled (through limits that
// put every input above the exact limit), at workers 1, 2 and 4:
// MaxLatency, MaxCongestion, exact_cells and swept_cells exactly (MaxCongestion
// within 1e-12 when sampled on non-integer weights, whose rescale factor is a
// ratio of two reassociated sums), Energy, AvgLatency and AvgCongestion
// within 1e-12 relative — and exactly, on
// integer weights, under a cost model whose constants are dyadic, where no
// sum of either association rounds. Every worker count must give the
// workers-1 bits, and the table path must fire exactly where a row repeats.
func TestEvaluateRowSumsMatchWalk(t *testing.T) {
	dyadic := hw.CostModel{RouterEnergy: 1, WireEnergy: 0.5, RouterLatency: 1, WireLatency: 0.25}
	for _, c := range rowCases(t) {
		for _, mode := range []struct {
			name string
			opts Options
		}{
			{"skip", Options{Congestion: CongestionSkip}},
			{"exact", Options{}},
			{"sampled", Options{limits: forceSampled(997)}},
		} {
			for _, cost := range []hw.CostModel{hw.DefaultCostModel(), dyadic} {
				exact := cost == dyadic && integral(c.p)
				if cost == dyadic && !exact {
					continue
				}
				name := fmt.Sprintf("%s/%s/exact=%v", c.name, mode.name, exact)
				want, _, wantExact, wantSwept := evaluateWalk(c.p, c.pl, cost, mode.opts)
				var first Summary
				for _, workers := range []int{1, 2, 4} {
					opts := mode.opts
					opts.Workers = workers
					got, exactCells, swept, rows := evaluateCounted(c.p, c.pl, cost, opts)
					if workers == 1 {
						first = got
					} else if got != first {
						t.Fatalf("%s workers %d: %+v, workers 1 %+v", name, workers, got, first)
					}
					if (rows > 0) != c.rows {
						t.Fatalf("%s: %d rows summed from a table, want some: %v", name, rows, c.rows)
					}
					// Sampled mode rescales the grid by Σw over the sampled Σw, two sums
					// the table reassociates: exact on integer weights, not beyond.
					congOK := got.MaxCongestion == want.MaxCongestion
					if mode.name == "sampled" && !integral(c.p) {
						congOK = math.Abs(got.MaxCongestion-want.MaxCongestion) <= 1e-12*want.MaxCongestion
					}
					if got.MaxLatency != want.MaxLatency || !congOK || exactCells != wantExact || swept != wantSwept {
						t.Fatalf("%s workers %d: max latency %v congestion %v, %d exact and %d swept cells; walk %v %v, %d and %d",
							name, workers, got.MaxLatency, got.MaxCongestion, exactCells, swept, want.MaxLatency, want.MaxCongestion, wantExact, wantSwept)
					}
					for _, f := range []struct {
						field     string
						got, want float64
					}{
						{"Energy", got.Energy, want.Energy},
						{"AvgLatency", got.AvgLatency, want.AvgLatency},
						{"AvgCongestion", got.AvgCongestion, want.AvgCongestion},
					} {
						if exact && f.got != f.want || !(math.Abs(f.got-f.want) <= 1e-12*math.Abs(f.want)) {
							t.Fatalf("%s workers %d: %s = %v, walk %v", name, workers, f.field, f.got, f.want)
						}
					}
				}
			}
		}
	}
}

// TestEvaluateTransposeReflectInvariant evaluates each placement of the
// per-row suite on its mesh transposed (rows ↔ columns) and reflected along
// each axis: hop counts and the clusters a table sums do not change, so
// Energy, AvgLatency, MaxLatency and AvgCongestion must keep their bits; MaxCongestion, whose propagation sweeps run in mesh order, stays
// within 1e-12. A table that confuses x with y, or a quadrant's sign, breaks
// this on every non-square box.
func TestEvaluateTransposeReflectInvariant(t *testing.T) {
	cost := hw.DefaultCostModel()
	for _, c := range rowCases(t) {
		mesh := c.pl.Mesh
		want := Evaluate(c.p, c.pl, cost, Options{})
		for _, v := range []struct {
			name string
			mesh hw.Mesh
			at   func(x, y int) (int, int)
		}{
			{"transpose", hw.MustMesh(mesh.Cols, mesh.Rows), func(x, y int) (int, int) { return y, x }},
			{"flip-rows", mesh, func(x, y int) (int, int) { return mesh.Rows - 1 - x, y }},
			{"flip-cols", mesh, func(x, y int) (int, int) { return x, mesh.Cols - 1 - y }},
		} {
			pl, err := place.New(c.p.NumClusters, v.mesh)
			if err != nil {
				t.Fatal(err)
			}
			for cl := range c.pl.PosOf {
				pt := c.pl.Of(cl)
				x, y := v.at(pt.X, pt.Y)
				pl.Assign(cl, int32(x*v.mesh.Cols+y))
			}
			got := Evaluate(c.p, pl, cost, Options{})
			if got.Energy != want.Energy || got.AvgLatency != want.AvgLatency || got.MaxLatency != want.MaxLatency ||
				got.AvgCongestion != want.AvgCongestion ||
				!(math.Abs(got.MaxCongestion-want.MaxCongestion) <= 1e-12*want.MaxCongestion) {
				t.Fatalf("%s %s: %+v, original %+v", c.name, v.name, got, want)
			}
		}
	}
}

// bruteRowSums is rowTable.sums by definition.
func bruteRowSums(cells []cellXY, s cellXY) (sumD int64, maxD int) {
	for _, q := range cells {
		d := geom.Abs(int(s.x-q.x)) + geom.Abs(int(s.y-q.y))
		sumD += int64(d)
		maxD = max(maxD, d)
	}
	return sumD, maxD
}

// checkRowTable builds a table over cells (placed as clusters 0..n−1) and
// compares sums from every source in a margin around the box, inside and
// outside it, with the brute force. It returns whether the table was built;
// it must be exactly when the box holds at most 4·n cells.
func checkRowTable(t *testing.T, cells []cellXY) bool {
	t.Helper()
	ids := make([]int32, len(cells))
	for i := range ids {
		ids[i] = int32(i)
	}
	var tb rowTable
	built := tb.build(ids, cells)
	x0, x1, y0, y1 := cells[0].x, cells[0].x, cells[0].y, cells[0].y
	for _, q := range cells {
		x0, x1, y0, y1 = min(x0, q.x), max(x1, q.x), min(y0, q.y), max(y1, q.y)
	}
	if fits := int(x1-x0+1)*int(y1-y0+1) <= 4*len(cells); built != fits {
		t.Fatalf("cells %v: table built %v, box within 4·n %v", cells, built, fits)
	}
	if !built {
		return false
	}
	for x := x0 - 3; x <= x1+3; x++ {
		for y := y0 - 3; y <= y1+3; y++ {
			s := cellXY{x, y}
			sd, md := tb.sums(s)
			wsd, wmd := bruteRowSums(cells, s)
			if sd != wsd || md != wmd {
				t.Fatalf("cells %v from %v: Σd %d, max d %d; brute force %d, %d", cells, s, sd, md, wsd, wmd)
			}
		}
	}
	return true
}

// TestRowTableMatchesBruteForce covers the table's shapes: a single cell, a
// full rectangle, rows with holes, an L, a box wider than tall and the
// reverse, and a diagonal spread whose box passes 4·n (no table).
func TestRowTableMatchesBruteForce(t *testing.T) {
	rect := func(x0, y0, h, w int32, skip func(i, j int32) bool) []cellXY {
		var cells []cellXY
		for i := int32(0); i < h; i++ {
			for j := int32(0); j < w; j++ {
				if skip == nil || !skip(i, j) {
					cells = append(cells, cellXY{x0 + i, y0 + j})
				}
			}
		}
		return cells
	}
	for _, c := range []struct {
		name  string
		cells []cellXY
		built bool
	}{
		{"single", []cellXY{{5, 7}}, true},
		{"square", rect(2, 3, 8, 8, nil), true},
		{"holes", rect(10, 0, 5, 9, func(i, j int32) bool { return (i+j)%3 == 0 }), true},
		{"L", rect(0, 0, 6, 6, func(i, j int32) bool { return i > 1 && j > 1 }), true},
		{"wide", rect(4, 1, 2, 13, nil), true},
		{"tall", rect(1, 4, 13, 2, func(i, j int32) bool { return i == 6 }), true},
		{"diagonal", []cellXY{{0, 0}, {3, 3}, {6, 6}, {9, 9}}, false},
	} {
		if got := checkRowTable(t, c.cells); got != c.built {
			t.Fatalf("%s: table built %v, want %v", c.name, got, c.built)
		}
	}
}

// FuzzRowTable draws up to 64 distinct cells in a 12×12 window and holds the
// table to the brute force from every source within three cells of the box.
func FuzzRowTable(f *testing.F) {
	f.Add(int64(1), uint8(16), uint8(4))
	f.Add(int64(2), uint8(1), uint8(0))
	f.Add(int64(3), uint8(40), uint8(11))
	f.Fuzz(func(t *testing.T, seed int64, count, spread uint8) {
		rng := rand.New(rand.NewSource(seed))
		side := 1 + int(spread)%12
		seen := map[cellXY]bool{}
		var cells []cellXY
		for i := 0; i < 1+int(count)%64; i++ {
			q := cellXY{int32(rng.Intn(side)), int32(rng.Intn(side))}
			if !seen[q] {
				seen[q] = true
				cells = append(cells, q)
			}
		}
		checkRowTable(t, cells)
	})
}
