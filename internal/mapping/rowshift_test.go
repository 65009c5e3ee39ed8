package mapping

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"snnmap/internal/curve"
	"snnmap/internal/geom"
	"snnmap/internal/hw"
	"snnmap/internal/pcn"
	"snnmap/internal/place"
	"snnmap/internal/snn"
)

// rowMajorPlacement assigns cluster i to the i-th cell of a custom cell list.
func placementAt(t *testing.T, mesh hw.Mesh, cells []int32) *place.Placement {
	t.Helper()
	pl, err := place.New(len(cells), mesh)
	if err != nil {
		t.Fatal(err)
	}
	for c, idx := range cells {
		pl.Assign(c, idx)
	}
	if err := pl.Validate(); err != nil {
		t.Fatal(err)
	}
	return pl
}

// rowMajorCells returns the first n cell indices in row-major order.
func rowMajorCells(n int) []int32 {
	cells := make([]int32, n)
	for i := range cells {
		cells[i] = int32(i)
	}
	return cells
}

func TestSpareRowsReservedThroughPipeline(t *testing.T) {
	p := chainPCN(t, 30)
	mesh := hw.MustMesh(8, 6)
	cons := hw.Constraints{SpareRows: 2}
	pl, err := InitialPlacementDefects(p, mesh, curve.Hilbert{}, nil, cons)
	if err != nil {
		t.Fatal(err)
	}
	usable := cons.UsableRows(mesh)
	checkReserved := func(stage string) {
		t.Helper()
		for idx := usable * mesh.Cols; idx < mesh.Rows*mesh.Cols; idx++ {
			if pl.ClusterAt[idx] != place.None {
				t.Fatalf("%s: cluster %d occupies reserved spare cell %d (row %d)",
					stage, pl.ClusterAt[idx], idx, idx/mesh.Cols)
			}
		}
	}
	checkReserved("initial placement")

	stats, err := Finetune(p, pl, FDConfig{Potential: L2Sq{}, Constraints: cons})
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Converged {
		t.Fatal("fine-tuning did not converge")
	}
	if err := pl.Validate(); err != nil {
		t.Fatal(err)
	}
	checkReserved("after fine-tuning")
}

func TestSpareRowsCapacityAndValidation(t *testing.T) {
	mesh := hw.MustMesh(8, 6)

	// 40 clusters do not fit the 36 usable cells left by a 2-row reservation.
	p := chainPCN(t, 40)
	if _, err := InitialPlacementDefects(p, mesh, curve.Hilbert{}, nil, hw.Constraints{SpareRows: 2}); !errors.Is(err, place.ErrUnplaceable) {
		t.Fatalf("40 clusters on 36 usable cells: got %v, want ErrUnplaceable", err)
	}

	// Reserving every row leaves nothing to place on.
	small := chainPCN(t, 2)
	if _, err := InitialPlacementDefects(small, mesh, curve.Hilbert{}, nil, hw.Constraints{SpareRows: mesh.Rows}); !errors.Is(err, place.ErrUnplaceable) {
		t.Fatalf("SpareRows == Rows: got %v, want ErrUnplaceable", err)
	}

	// Negative reservations are config errors everywhere they can enter.
	if _, err := InitialPlacementDefects(small, mesh, curve.Hilbert{}, nil, hw.Constraints{SpareRows: -1}); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("negative SpareRows in placement: got %v, want ErrBadConfig", err)
	}
	pl, err := place.Sequential(small.NumClusters, mesh)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Finetune(small, pl, FDConfig{Potential: L2Sq{}, Constraints: hw.Constraints{SpareRows: -1}}); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("negative SpareRows in fine-tuning: got %v, want ErrBadConfig", err)
	}
}

func TestRemapRowsSingleRowShift(t *testing.T) {
	// 30 clusters fill rows 0-4 of a 7x6 mesh; rows 5 and 6 are free spares.
	p := chainPCN(t, 30)
	mesh := hw.MustMesh(7, 6)
	pl := placementAt(t, mesh, rowMajorCells(30))

	d := hw.NewDefectMap(mesh)
	for y := 0; y < mesh.Cols; y++ {
		d.MarkDead(y) // kill row 0
	}
	st, err := RemapRows(p, pl, d, hw.Constraints{}, hw.DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	if st.RowsShifted != 1 || st.RowMoved != 6 || st.FallbackMoved != 0 || st.Moved != 6 {
		t.Fatalf("stats = %+v, want 1 row shifted, 6 row-moved, 0 fallback", st)
	}
	if st.MaxMoveDist != 5 {
		t.Fatalf("MaxMoveDist = %d, want 5 (row 0 -> row 5)", st.MaxMoveDist)
	}
	if want := 6.0 / 30.0; st.MovedFrac != want {
		t.Fatalf("MovedFrac = %v, want %v", st.MovedFrac, want)
	}
	// The nearer free row (5, distance 5, vs row 6 at distance 6) wins, and
	// every cluster keeps its column.
	for c := 0; c < 6; c++ {
		if want := int32(5*mesh.Cols + c); pl.PosOf[c] != want {
			t.Fatalf("cluster %d at cell %d, want %d (row 5, same column)", c, pl.PosOf[c], want)
		}
	}
	if err := pl.ValidateDefects(d); err != nil {
		t.Fatal(err)
	}
	if st.EnergyBefore <= 0 || math.IsNaN(st.EnergyAfter) {
		t.Fatalf("energies not tracked: %+v", st)
	}
}

func TestRemapRowsTieBreaksToLargerRow(t *testing.T) {
	// Rows 1-3 occupied on a 5x6 mesh; rows 0 and 4 free. Killing row 2
	// leaves two equidistant targets — the larger row index (the bottom
	// spare) must win.
	p := chainPCN(t, 18)
	mesh := hw.MustMesh(5, 6)
	cells := make([]int32, 18)
	for i := range cells {
		cells[i] = int32(mesh.Cols + i) // rows 1..3
	}
	pl := placementAt(t, mesh, cells)

	d := hw.NewDefectMap(mesh)
	for y := 0; y < mesh.Cols; y++ {
		d.MarkDead(2*mesh.Cols + y)
	}
	st, err := RemapRows(p, pl, d, hw.Constraints{}, hw.DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	if st.RowsShifted != 1 || st.RowMoved != 6 || st.MaxMoveDist != 2 {
		t.Fatalf("stats = %+v, want 1 row shifted at distance 2", st)
	}
	// Row 2 held clusters 6..11; they must land on row 4, not row 0.
	for c := 6; c < 12; c++ {
		if want := int32(4*mesh.Cols + (c - 6)); pl.PosOf[c] != want {
			t.Fatalf("cluster %d at cell %d, want %d (row 4)", c, pl.PosOf[c], want)
		}
	}
	if err := pl.ValidateDefects(d); err != nil {
		t.Fatal(err)
	}
}

func TestRemapRowsMultiRow(t *testing.T) {
	// Rows 0-4 occupied on a 7x6 mesh, rows 5-6 free. Kill rows 1 and 3:
	// row 1 shifts to row 5 (distance 4), then row 3 shifts to row 6
	// (distance 3) — the vacated row 1 is fully free by then but all its
	// cells are dead, so it must be rejected as a target.
	p := chainPCN(t, 30)
	mesh := hw.MustMesh(7, 6)
	pl := placementAt(t, mesh, rowMajorCells(30))

	d := hw.NewDefectMap(mesh)
	for y := 0; y < mesh.Cols; y++ {
		d.MarkDead(1*mesh.Cols + y)
		d.MarkDead(3*mesh.Cols + y)
	}
	st, err := RemapRows(p, pl, d, hw.Constraints{}, hw.DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	if st.RowsShifted != 2 || st.RowMoved != 12 || st.FallbackMoved != 0 {
		t.Fatalf("stats = %+v, want 2 rows shifted, 12 moved", st)
	}
	if st.MaxMoveDist != 4 {
		t.Fatalf("MaxMoveDist = %d, want 4 (row 1 -> row 5)", st.MaxMoveDist)
	}
	for c := 6; c < 12; c++ { // row 1 occupants
		if want := int32(5*mesh.Cols + (c - 6)); pl.PosOf[c] != want {
			t.Fatalf("cluster %d at cell %d, want %d (row 5)", c, pl.PosOf[c], want)
		}
	}
	for c := 18; c < 24; c++ { // row 3 occupants
		if want := int32(6*mesh.Cols + (c - 18)); pl.PosOf[c] != want {
			t.Fatalf("cluster %d at cell %d, want %d (row 6)", c, pl.PosOf[c], want)
		}
	}
	if err := pl.ValidateDefects(d); err != nil {
		t.Fatal(err)
	}
}

func TestRemapRowsFallback(t *testing.T) {
	// 5x6 mesh: rows 0, 2, 3 full; row 1 holds cols 0-4; row 4 free.
	// Killing all of row 1 plus cell (4,0) poisons the only fully-free row
	// under the victims' columns, so the wholesale shift must be rejected
	// and all five victims migrate via the per-cluster fallback.
	p := chainPCN(t, 23)
	mesh := hw.MustMesh(5, 6)
	cells := make([]int32, 0, 23)
	for y := 0; y < 6; y++ {
		cells = append(cells, int32(y)) // row 0
	}
	for y := 0; y < 5; y++ {
		cells = append(cells, int32(mesh.Cols+y)) // row 1, cols 0-4
	}
	for idx := 2 * mesh.Cols; idx < 4*mesh.Cols; idx++ {
		cells = append(cells, int32(idx)) // rows 2-3
	}
	pl := placementAt(t, mesh, cells)

	d := hw.NewDefectMap(mesh)
	for y := 0; y < mesh.Cols; y++ {
		d.MarkDead(mesh.Cols + y) // all of row 1
	}
	d.MarkDead(4 * mesh.Cols) // cell (4,0)

	st, err := RemapRows(p, pl, d, hw.Constraints{}, hw.DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	if st.RowsShifted != 0 || st.RowMoved != 0 {
		t.Fatalf("stats = %+v, want no wholesale shifts", st)
	}
	if st.FallbackMoved != 5 || st.Moved != 5 {
		t.Fatalf("stats = %+v, want 5 fallback migrations", st)
	}
	if err := pl.ValidateDefects(d); err != nil {
		t.Fatal(err)
	}
	// All five victims must have landed on the healthy part of row 4.
	for c := 6; c < 11; c++ {
		if row := pl.PosOf[c] / int32(mesh.Cols); row != 4 {
			t.Fatalf("cluster %d on row %d, want row 4", c, row)
		}
	}
}

func TestRemapRowsNoopAndErrors(t *testing.T) {
	p := chainPCN(t, 6)
	mesh := hw.MustMesh(3, 3)
	pl := placementAt(t, mesh, rowMajorCells(6))

	// nil defect map: pure no-op, energies equal.
	st, err := RemapRows(p, pl, nil, hw.Constraints{}, hw.DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	if st.Moved != 0 || st.EnergyAfter != st.EnergyBefore {
		t.Fatalf("nil defects: %+v, want no-op", st)
	}

	// Dead cells that hold no cluster: still a no-op.
	d := hw.NewDefectMap(mesh)
	d.MarkDead(8) // free corner
	st, err = RemapRows(p, pl, d, hw.Constraints{}, hw.DefaultCostModel())
	if err != nil || st.Moved != 0 {
		t.Fatalf("dead free cell: st=%+v err=%v, want no-op", st, err)
	}

	// Placement/PCN size mismatch.
	if _, err := RemapRows(chainPCN(t, 4), pl, d, hw.Constraints{}, hw.DefaultCostModel()); err == nil {
		t.Fatal("size mismatch not rejected")
	}

	// Full mesh with a killed cell: nowhere to go.
	full := chainPCN(t, 9)
	plFull := placementAt(t, mesh, rowMajorCells(9))
	dd := hw.NewDefectMap(mesh)
	dd.MarkDead(4)
	if _, err := RemapRows(full, plFull, dd, hw.Constraints{}, hw.DefaultCostModel()); !errors.Is(err, ErrUnplaceable) {
		t.Fatalf("full mesh: got %v, want ErrUnplaceable", err)
	}
}

func TestRemapRowsNoWorseThanPerCluster(t *testing.T) {
	// Acceptance check at the library level: on the same defect map, the
	// wholesale row shift's ΔM_ec must not exceed per-cluster Remap's.
	for _, tc := range []struct {
		name     string
		clusters int
		mesh     hw.Mesh
		kill     []int // rows to kill entirely
	}{
		{"single row, two spares", 30, hw.MustMesh(7, 6), []int{0}},
		{"two rows, two spares", 30, hw.MustMesh(7, 6), []int{1, 3}},
		{"middle row, split spares", 18, hw.MustMesh(5, 6), []int{2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := chainPCN(t, tc.clusters)
			var cells []int32
			if tc.clusters == 18 {
				cells = make([]int32, 18)
				for i := range cells {
					cells[i] = int32(tc.mesh.Cols + i)
				}
			} else {
				cells = rowMajorCells(tc.clusters)
			}
			base := placementAt(t, tc.mesh, cells)
			d := hw.NewDefectMap(tc.mesh)
			for _, r := range tc.kill {
				for y := 0; y < tc.mesh.Cols; y++ {
					d.MarkDead(r*tc.mesh.Cols + y)
				}
			}
			plShift, plPer := base.Clone(), base.Clone()
			shift, err := RemapRows(p, plShift, d, hw.Constraints{}, hw.DefaultCostModel())
			if err != nil {
				t.Fatal(err)
			}
			per, err := Remap(p, plPer, d, hw.Constraints{}, hw.DefaultCostModel())
			if err != nil {
				t.Fatal(err)
			}
			if shift.DeltaEnergy() > per.DeltaEnergy()+1e-9 {
				t.Fatalf("row shift dM_ec %.6g worse than per-cluster %.6g",
					shift.DeltaEnergy(), per.DeltaEnergy())
			}
		})
	}
}

// pairedPCN builds n chain clusters of 2 neurons each.
func pairedPCN(t *testing.T, n int) *pcn.PCN {
	t.Helper()
	g := snn.FullyConnected(2*n, 1)
	res, err := pcn.Partition(g, pcn.PartitionConfig{Constraints: hw.Constraints{NeuronsPerCore: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if res.PCN.NumClusters != n {
		t.Fatalf("partition produced %d clusters, want %d", res.PCN.NumClusters, n)
	}
	return res.PCN
}

// TestInterconnectEnergyBits pins the coordinate-table energy walk to the
// plain pl.Of loop, bit for bit, on a placement with dead cores, a failed
// row shifted to the spares and fractional weights (so a changed summation
// order would show).
func TestInterconnectEnergyBits(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const n = 600
	var b snn.GraphBuilder
	b.AddNeurons(n, -1)
	for i := 0; i < 5*n; i++ {
		if u, v := rng.Intn(n), rng.Intn(n); u != v {
			b.AddSynapse(u, v, rng.Float64()*9+0.5)
		}
	}
	res, err := pcn.Partition(b.Build(), pcn.PartitionConfig{Constraints: hw.Constraints{NeuronsPerCore: 1}})
	if err != nil {
		t.Fatal(err)
	}
	p, mesh, cons, cost := res.PCN, hw.MustMesh(30, 24), hw.Constraints{SpareRows: 2}, hw.DefaultCostModel()
	d := hw.InjectClustered(mesh, 0.02, 3, 11)
	pl, err := InitialPlacementDefects(p, mesh, curve.Hilbert{}, d, cons)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Finetune(p, pl, FDConfig{Potential: L2Sq{}, Defects: d, Constraints: cons}); err != nil {
		t.Fatal(err)
	}
	plain := func() float64 {
		var total float64
		for c := 0; c < p.NumClusters; c++ {
			tos, ws := p.OutEdges(c)
			for k, to := range tos {
				total += ws[k] * cost.SpikeEnergy(geom.Manhattan(pl.Of(c), pl.Of(int(to))))
			}
		}
		return total
	}
	check := func(stage string, got float64) {
		t.Helper()
		if want := plain(); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: energy %v, plain loop %v", stage, got, want)
		}
	}
	check("fine-tuned", InterconnectEnergy(p, pl, cost))
	for col := 0; col < mesh.Cols; col++ {
		d.MarkDead(col)
	}
	st, err := RemapRows(p, pl, d, cons, cost)
	if err != nil {
		t.Fatal(err)
	}
	if st.Moved == 0 {
		t.Fatal("row 0 failed but nothing moved")
	}
	check("row-shifted", InterconnectEnergy(p, pl, cost))
	check("RemapRows.EnergyAfter", st.EnergyAfter)
}
