package mapping

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"snnmap/internal/curve"
	"snnmap/internal/geom"
	"snnmap/internal/hw"
	"snnmap/internal/pcn"
	"snnmap/internal/place"
	"snnmap/internal/snn"
)

// checkNearest asks the index and the ring scan for the nearest free core
// from `from` and fails on any difference.
func checkNearest(t *testing.T, f *freeCores, pl *place.Placement, d *hw.DefectMap, from geom.Point) (int, bool) {
	t.Helper()
	want, wok := nearestFreeRing(pl, d, from)
	got, gok := f.nearest(from)
	if gok != wok || (wok && got != want) {
		t.Fatalf("from %v on %v: index (%d, %v), ring scan (%d, %v)", from, pl.Mesh, got, gok, want, wok)
	}
	return got, gok
}

// checkIndex fails unless f's bits are exactly the free, alive cores of pl.
func checkIndex(t *testing.T, f *freeCores, pl *place.Placement, d *hw.DefectMap) {
	t.Helper()
	if fresh := newFreeCores(pl, d); !reflect.DeepEqual(f.bits, fresh.bits) {
		t.Fatal("index bits differ from a rebuild on the current placement")
	}
}

// TestNearestFreeOrder pins each rule of the ring order on hand-built
// layouts: +column before −column at equal distance, signed row offset
// (not its magnitude) at equal distance, a row at offset equal to the best
// distance still visited, the origin never a candidate, and dead cells
// skipped on both sides of a word boundary.
func TestNearestFreeOrder(t *testing.T) {
	pt := func(xy [2]int) geom.Point { return geom.Point{X: xy[0], Y: xy[1]} }
	for _, tc := range []struct {
		name       string
		rows, cols int
		from       [2]int
		free       [][2]int // every other cell is occupied
		dead       [][2]int
		want       [2]int
	}{
		{"right before left", 1, 11, [2]int{0, 5}, [][2]int{{0, 3}, {0, 7}}, nil, [2]int{0, 7}},
		{"nearer left beats right", 1, 11, [2]int{0, 5}, [][2]int{{0, 4}, {0, 7}}, nil, [2]int{0, 4}},
		{"signed row offset", 5, 5, [2]int{2, 2}, [][2]int{{3, 3}, {0, 2}}, nil, [2]int{0, 2}},
		{"row above before row below", 5, 5, [2]int{2, 2}, [][2]int{{3, 2}, {1, 2}}, nil, [2]int{1, 2}},
		{"row at the best distance", 5, 5, [2]int{2, 2}, [][2]int{{2, 4}, {0, 2}}, nil, [2]int{0, 2}},
		{"origin skipped", 3, 3, [2]int{1, 1}, [][2]int{{1, 1}, {2, 2}}, nil, [2]int{2, 2}},
		{"dead skipped", 2, 70, [2]int{0, 64}, [][2]int{{0, 65}, {0, 63}, {0, 69}},
			[][2]int{{0, 65}, {0, 63}}, [2]int{0, 69}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mesh := hw.MustMesh(tc.rows, tc.cols)
			d := hw.NewDefectMap(mesh)
			for _, xy := range tc.dead {
				d.MarkDead(mesh.Index(pt(xy)))
			}
			isFree := map[int]bool{}
			for _, xy := range tc.free {
				isFree[mesh.Index(pt(xy))] = true
			}
			var cells []int32
			for idx := 0; idx < mesh.Cores(); idx++ {
				if !isFree[idx] {
					cells = append(cells, int32(idx))
				}
			}
			pl := placementAt(t, mesh, cells)
			got, ok := checkNearest(t, newFreeCores(pl, d), pl, d, pt(tc.from))
			if !ok || got != mesh.Index(pt(tc.want)) {
				t.Fatalf("nearest = (%v, %v), want %v", mesh.Coord(got), ok, tc.want)
			}
		})
	}
}

// FuzzNearestFree holds the free-core index to the ring scan: random meshes
// with 1, 63, 64, 65 or 130 columns and dead cores, queried from cluster
// cores and arbitrary cells with every answer taken as a move, so freed and
// taken cores interleave with the queries.
func FuzzNearestFree(f *testing.F) {
	for i, cols := range []uint8{0, 1, 2, 3, 4} {
		f.Add(int64(i+1), cols, uint8(i), uint8(10*i), uint8(60), uint16(120))
	}
	f.Add(int64(9), uint8(4), uint8(5), uint8(50), uint8(95), uint16(300))
	f.Add(int64(10), uint8(1), uint8(0), uint8(0), uint8(100), uint16(5))
	f.Fuzz(func(t *testing.T, seed int64, colSel, rowSel, deadPct, fillPct uint8, ops uint16) {
		cols := []int{1, 63, 64, 65, 130}[int(colSel)%5]
		mesh := hw.MustMesh(1+int(rowSel)%6, cols)
		rng := rand.New(rand.NewSource(seed))
		d := hw.NewDefectMap(mesh)
		var cells []int32
		for idx := 0; idx < mesh.Cores(); idx++ {
			if rng.Intn(100) < int(deadPct)%70 {
				d.MarkDead(idx)
			}
			// Clusters sit on dead cores too: those are repair victims.
			if rng.Intn(100) < int(fillPct)%101 {
				cells = append(cells, int32(idx))
			}
		}
		if len(cells) == 0 {
			return
		}
		pl := placementAt(t, mesh, cells)
		free := newFreeCores(pl, d)
		for i := 0; i < 1+int(ops)%400; i++ {
			c := rng.Intn(len(cells))
			from := pl.Of(c)
			if rng.Intn(4) == 0 {
				from = mesh.Coord(rng.Intn(mesh.Cores()))
			}
			to, ok := checkNearest(t, free, pl, d, from)
			if ok {
				if err := free.move(pl, c, int32(to)); err != nil {
					t.Fatal(err)
				}
			}
		}
		checkIndex(t, free, pl, d)
	})
}

// repairCase is one repair input: a PCN, a placement and the field defect
// map the repair sees.
type repairCase struct {
	name string
	p    *pcn.PCN
	pl   *place.Placement
	d    *hw.DefectMap
	cons hw.Constraints
}

// mixedPCN partitions a seeded random graph of n neurons at up to npc
// neurons per cluster, so clusters differ in size.
func mixedPCN(t *testing.T, n, npc int, seed int64) *pcn.PCN {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var b snn.GraphBuilder
	b.AddNeurons(n, -1)
	for i := 0; i < 4*n; i++ {
		u := rng.Intn(n)
		if v := (u + 1 + rng.Intn(12)) % n; rng.Intn(5) > 0 {
			b.AddSynapse(u, v, rng.Float64()*9+0.5)
		} else {
			b.AddSynapse(u, rng.Intn(n), rng.Float64()*9+0.5)
		}
	}
	res, err := pcn.Partition(b.Build(), pcn.PartitionConfig{Constraints: hw.Constraints{NeuronsPerCore: npc}})
	if err != nil {
		t.Fatal(err)
	}
	return res.PCN
}

// killRows returns a copy of d with every core of the given rows dead.
func killRows(d *hw.DefectMap, mesh hw.Mesh, rows ...int) *hw.DefectMap {
	if d == nil {
		d = hw.NewDefectMap(mesh)
	} else {
		d = d.Clone()
	}
	for _, r := range rows {
		for y := 0; y < mesh.Cols; y++ {
			d.MarkDead(r*mesh.Cols + y)
		}
	}
	return d
}

// repairCases builds the hand-made layouts (row shift kept, per-cluster
// kept, multi-row, poisoned spare row, unplaceable) and seeded HSC+FD
// placements on clustered defects with one to three failed rows, with and
// without spare rows, and with scattered dead cores on every other seed.
func repairCases(t *testing.T) []repairCase {
	var cases []repairCase
	add := func(name string, p *pcn.PCN, pl *place.Placement, d *hw.DefectMap, cons hw.Constraints) {
		cases = append(cases, repairCase{name, p, pl, d, cons})
	}
	m76 := hw.MustMesh(7, 6)
	add("row 0 to spare", chainPCN(t, 30), placementAt(t, m76, rowMajorCells(30)), killRows(nil, m76, 0), hw.Constraints{})
	add("rows 1 and 3", chainPCN(t, 30), placementAt(t, m76, rowMajorCells(30)), killRows(nil, m76, 1, 3), hw.Constraints{})

	// One dead core in row 0 with a free core next to it: moving the one
	// victim beats shifting all six clusters eight rows down.
	m106 := hw.MustMesh(10, 6)
	var cells []int32
	for idx := 0; idx < 8*6; idx++ {
		if idx != 7 {
			cells = append(cells, int32(idx))
		}
	}
	one := hw.NewDefectMap(m106)
	one.MarkDead(2)
	add("per-cluster kept", chainPCN(t, len(cells)), placementAt(t, m106, cells), one, hw.Constraints{})

	// Row 1 dies and the only free row has a dead core under column 0.
	m56 := hw.MustMesh(5, 6)
	cells = cells[:0]
	for idx := 0; idx < 4*6; idx++ {
		if idx != 11 {
			cells = append(cells, int32(idx))
		}
	}
	poisoned := killRows(nil, m56, 1)
	poisoned.MarkDead(4 * 6)
	add("poisoned spare", chainPCN(t, len(cells)), placementAt(t, m56, cells), poisoned, hw.Constraints{})

	m33 := hw.MustMesh(3, 3)
	full := hw.NewDefectMap(m33)
	full.MarkDead(4)
	add("full mesh", chainPCN(t, 9), placementAt(t, m33, rowMajorCells(9)), full, hw.Constraints{})
	add("two rows, three free cores", chainPCN(t, 24), placementAt(t, hw.MustMesh(9, 3), rowMajorCells(24)), killRows(nil, hw.MustMesh(9, 3), 0, 4), hw.Constraints{})

	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		npc := []int{1, 3, 4}[seed%3]
		p := mixedPCN(t, 400+rng.Intn(300), npc, seed)
		side := hw.MeshFor(p.NumClusters)
		spare := int(seed % 3)
		mesh := hw.MustMesh(side.Rows+side.Rows/8+spare, side.Cols+int(seed%2))
		cons := hw.Constraints{SpareRows: spare}
		d := hw.InjectClustered(mesh, 0.03, 3, seed)
		if seed%2 == 0 {
			// Scattered dead cores on top of the clustered ones: half of
			// the drawn cells that the blobs left alive. They are marked
			// after the draws, so every coin sees the blobs only.
			var scattered []int
			for i := 0; i < mesh.Cores()/20; i++ {
				if idx := rng.Intn(mesh.Cores()); !d.IsDead(idx) && rng.Float64() < 0.5 {
					scattered = append(scattered, idx)
				}
			}
			for _, idx := range scattered {
				d.MarkDead(idx)
			}
		}
		pl, err := InitialPlacementDefects(p, mesh, curve.Hilbert{}, d, cons)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Finetune(p, pl, FDConfig{Potential: L2Sq{}, Defects: d, Constraints: cons, MaxIterations: 3}); err != nil {
			t.Fatal(err)
		}
		first := 0 // the first occupied row, as the benchmark fails it
		for idx, c := range pl.ClusterAt {
			if c != place.None {
				first = idx / mesh.Cols
				break
			}
		}
		kill := []int{first}
		for i := 0; i < int(seed%3); i++ {
			kill = append(kill, rng.Intn(cons.UsableRows(mesh)))
		}
		add(fmt.Sprintf("seed %d, rows %v", seed, kill), p, pl, killRows(d, mesh, kill...), cons)
	}
	return cases
}

// TestRepairMatchesRingScan runs Remap and RemapRows against the pre-index
// code kept in repair_oracle_test.go: the same stats (but Elapsed), the
// same repaired placement and the same error text on every case, and both
// arms of RemapRows' shift-or-migrate choice are taken somewhere.
func TestRepairMatchesRingScan(t *testing.T) {
	cost := hw.DefaultCostModel()
	shiftKept, perKept, failed := 0, 0, 0
	errText := func(err error) string {
		if err == nil {
			return ""
		}
		return err.Error()
	}
	for _, tc := range repairCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			got, want := tc.pl.Clone(), tc.pl.Clone()
			st, err := Remap(tc.p, got, tc.d, tc.cons, cost)
			ost, oerr := remapRing(tc.p, want, tc.d, tc.cons, cost)
			st.Elapsed, ost.Elapsed = 0, 0
			// Errorf, not Fatalf: a fault in the shared routine shows in
			// both repairs.
			if st != ost || errText(err) != errText(oerr) {
				t.Errorf("Remap: %+v, %v; ring scan: %+v, %v", st, err, ost, oerr)
			}
			if !reflect.DeepEqual(got.PosOf, want.PosOf) {
				t.Error("Remap placed clusters differently from the ring scan")
			}

			got, want = tc.pl.Clone(), tc.pl.Clone()
			rst, err := RemapRows(tc.p, got, tc.d, tc.cons, cost)
			orst, oerr := remapRowsRing(tc.p, want, tc.d, tc.cons, cost)
			rst.Elapsed, orst.Elapsed = 0, 0
			if rst != orst || errText(err) != errText(oerr) {
				t.Fatalf("RemapRows: %+v, %v; ring scan: %+v, %v", rst, err, orst, oerr)
			}
			if !reflect.DeepEqual(got.PosOf, want.PosOf) {
				t.Fatal("RemapRows placed clusters differently from the ring scan")
			}
			if err != nil {
				failed++
				return
			}
			if rst.RowsShifted > 0 {
				shiftKept++
			}
			if rst.FallbackMoved > 0 {
				perKept++
			}
		})
	}
	if shiftKept == 0 || perKept == 0 || failed == 0 {
		t.Fatalf("cases cover %d row shifts, %d per-cluster repairs, %d failures; want each", shiftKept, perKept, failed)
	}
}

// TestRepairRejectsDefectMesh: a defect map drawn for another mesh is a
// configuration error for every function that indexes the placement's cells
// by it, and leaves the placement untouched.
func TestRepairRejectsDefectMesh(t *testing.T) {
	p := chainPCN(t, 40)
	mesh := hw.MustMesh(8, 8)
	cost := hw.DefaultCostModel()
	for _, other := range []hw.Mesh{hw.MustMesh(4, 4), hw.MustMesh(16, 4), hw.MustMesh(16, 16), hw.MustMesh(8, 7)} {
		d := killRows(nil, other, 0)
		base := placementAt(t, mesh, rowMajorCells(40))
		for name, run := range map[string]func(*place.Placement) error{
			"Remap":     func(pl *place.Placement) error { _, err := Remap(p, pl, d, hw.Constraints{}, cost); return err },
			"RemapRows": func(pl *place.Placement) error { _, err := RemapRows(p, pl, d, hw.Constraints{}, cost); return err },
			"Finetune": func(pl *place.Placement) error {
				_, err := Finetune(p, pl, FDConfig{Potential: L2Sq{}, Defects: d})
				return err
			},
		} {
			pl := base.Clone()
			if err := run(pl); !errors.Is(err, ErrBadConfig) {
				t.Errorf("%s with a %v defect map on %v: got %v, want ErrBadConfig", name, other, mesh, err)
			}
			if !reflect.DeepEqual(pl.PosOf, base.PosOf) {
				t.Errorf("%s with a %v defect map moved clusters", name, other)
			}
		}
	}
}
