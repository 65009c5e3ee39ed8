package mapping

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"snnmap/internal/curve"
	"snnmap/internal/geom"
	"snnmap/internal/hw"
	"snnmap/internal/place"
)

// TestClosedFormEqualsEval pins the exactness argument of fieldKind: for
// every built-in integer potential the closed-form value and directional
// differences equal Eval(dp) and Eval(dp) − Eval(dp−δ) bit for bit.
func TestClosedFormEqualsEval(t *testing.T) {
	for _, pot := range []Potential{L1{}, L1Sq{}, L2Sq{}} {
		k := closedForm(pot)
		if k == fieldEval {
			t.Fatalf("%s has no closed form", pot.Name())
		}
		for x := -300; x <= 300; x++ {
			for y := -300; y <= 300; y++ {
				dp := geom.Point{X: x, Y: y}
				u0 := pot.Eval(dp)
				if got := float64(k.at(x, y)); math.Float64bits(got) != math.Float64bits(u0) {
					t.Fatalf("%s at %v: closed form %v, Eval %v", pot.Name(), dp, got, u0)
				}
				up, down, right, left := k.steps(x, y)
				for d, got := range [geom.NumDirs]int{geom.Up: up, geom.Down: down, geom.Right: right, geom.Left: left} {
					step := [geom.NumDirs]geom.Point{geom.Up: {X: -1}, geom.Down: {X: 1}, geom.Right: {Y: 1}, geom.Left: {Y: -1}}[d]
					want := u0 - pot.Eval(geom.Point{X: x - step.X, Y: y - step.Y})
					if math.Float64bits(float64(got)) != math.Float64bits(want) {
						t.Fatalf("%s at %v %v: closed form %d, Eval difference %v", pot.Name(), dp, geom.Dir(d), got, want)
					}
				}
			}
		}
	}
	if closedForm(EnergyPotential{Cost: hw.DefaultCostModel()}) != fieldEval {
		t.Error("the energy potential is not integer-valued and must go through Eval")
	}
}

// opaque hides the concrete potential from closedForm, forcing the engine
// onto the generic Eval path.
type opaque struct{ Potential }

// TestClosedFormKernelsEqualEvalPath runs the FD equivalence inputs
// (pristine / defective / spare rows, workers {1, 4}) once with each
// built-in potential and once with the same potential hidden behind opaque:
// placement and FDStats must agree bit for bit.
func TestClosedFormKernelsEqualEvalPath(t *testing.T) {
	mesh := hw.MustMesh(22, 22)
	p := randomPCN(t, 41, 440, 3200)
	defects := hw.NewDefectMap(mesh)
	for _, idx := range []int{3, 57, 170, 300, 441} {
		defects.MarkDead(idx)
	}
	spare := hw.Constraints{SpareRows: 2}
	random := func() *place.Placement {
		pl, err := place.Random(p.NumClusters, mesh, rand.New(rand.NewSource(17)))
		if err != nil {
			t.Fatal(err)
		}
		return pl
	}
	for _, sc := range []struct {
		name  string
		cfg   FDConfig
		start func() *place.Placement
	}{
		{"pristine", FDConfig{}, random},
		{"defective", FDConfig{Defects: defects}, random},
		{"spare-rows", FDConfig{Constraints: spare}, func() *place.Placement {
			pl, err := InitialPlacementDefects(p, mesh, curve.Hilbert{}, nil, spare)
			if err != nil {
				t.Fatal(err)
			}
			return pl
		}},
	} {
		for _, pot := range []Potential{L1{}, L1Sq{}, L2Sq{}} {
			for _, workers := range []int{1, 4} {
				run := func(pot Potential) ([]int32, FDStats) {
					pl := sc.start()
					cfg := sc.cfg
					cfg.Potential, cfg.Workers = pot, workers
					stats, err := Finetune(p, pl, cfg)
					if err != nil {
						t.Fatalf("%s %s: %v", sc.name, pot.Name(), err)
					}
					stats.Elapsed = 0
					return pl.PosOf, stats
				}
				pos, stats := run(pot)
				evalPos, evalStats := run(opaque{pot})
				if stats.Swaps == 0 {
					t.Fatalf("%s %s: no swaps executed, the comparison is vacuous", sc.name, pot.Name())
				}
				if stats != evalStats {
					t.Errorf("%s %s workers=%d: closed-form stats %+v, Eval path %+v", sc.name, pot.Name(), workers, stats, evalStats)
				}
				if !slices.Equal(pos, evalPos) {
					t.Errorf("%s %s workers=%d: placements differ", sc.name, pot.Name(), workers)
				}
			}
		}
	}
}

// TestFinetuneConcurrentSharedPCN fine-tunes one PCN from four goroutines at
// once — the shared PCN's adjacency is first built inside those calls — and
// compares every result with a sequential run on an identical PCN. Run
// under -race it is the data-race check for the lazily built views.
func TestFinetuneConcurrentSharedPCN(t *testing.T) {
	mesh := hw.MustMesh(22, 22)
	// onFreshPCN returns a fine-tuning run bound to its own, untouched PCN
	// (same content every time: randomPCN is seeded).
	onFreshPCN := func() func() ([]int32, FDStats, error) {
		p := randomPCN(t, 41, 440, 3200)
		return func() ([]int32, FDStats, error) {
			pl, err := place.Random(p.NumClusters, mesh, rand.New(rand.NewSource(5)))
			if err != nil {
				return nil, FDStats{}, err
			}
			stats, err := Finetune(p, pl, FDConfig{Potential: L2Sq{}})
			stats.Elapsed = 0
			return pl.PosOf, stats, err
		}
	}
	wantPos, wantStats, err := onFreshPCN()()
	if err != nil {
		t.Fatal(err)
	}
	const callers = 4
	shared := onFreshPCN()
	pos := make([][]int32, callers)
	stats := make([]FDStats, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			pos[i], stats[i], errs[i] = shared()
		}(i)
	}
	wg.Wait()
	for i := 0; i < callers; i++ {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if stats[i] != wantStats {
			t.Errorf("caller %d: stats %+v, sequential %+v", i, stats[i], wantStats)
		}
		if !slices.Equal(pos[i], wantPos) {
			t.Errorf("caller %d: placement differs from the sequential run", i)
		}
	}
}
