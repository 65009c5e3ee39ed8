package mapping

import (
	"testing"
	"testing/quick"

	"snnmap/internal/geom"
	"snnmap/internal/hw"
)

func TestPotentialValues(t *testing.T) {
	p := geom.Point{X: 2, Y: -3}
	if got := (L1{}).Eval(p); got != 5 {
		t.Errorf("u_a = %g, want 5", got)
	}
	if got := (L1Sq{}).Eval(p); got != 25 {
		t.Errorf("u_b = %g, want 25", got)
	}
	if got := (L2Sq{}).Eval(p); got != 13 {
		t.Errorf("u_c = %g, want 13", got)
	}
	e := EnergyPotential{Cost: hw.DefaultCostModel()}
	// (‖p‖+1)·EN_r + ‖p‖·EN_w = 6·1 + 5·0.1 (Eq. 25).
	if got := e.Eval(p); got != 6.5 {
		t.Errorf("u_energy = %g, want 6.5", got)
	}
}

func TestPotentialSymmetry(t *testing.T) {
	pots := []Potential{L1{}, L1Sq{}, L2Sq{}, EnergyPotential{Cost: hw.DefaultCostModel()}}
	f := func(x, y int16) bool {
		p := geom.Point{X: int(x % 100), Y: int(y % 100)}
		n := geom.Point{X: -p.X, Y: -p.Y}
		for _, pot := range pots {
			if pot.Eval(p) != pot.Eval(n) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPotentialMonotoneInDistance(t *testing.T) {
	// Farther positions must never have lower potential (the field pulls
	// clusters together).
	pots := []Potential{L1{}, L1Sq{}, L2Sq{}, EnergyPotential{Cost: hw.DefaultCostModel()}}
	for _, pot := range pots {
		for d := 1; d < 20; d++ {
			a := pot.Eval(geom.Point{X: d, Y: 0})
			b := pot.Eval(geom.Point{X: d - 1, Y: 0})
			if a <= b {
				t.Errorf("%s: u(%d) = %g <= u(%d) = %g", pot.Name(), d, a, d-1, b)
			}
		}
	}
}

func TestPotentialByName(t *testing.T) {
	for _, name := range []string{"l1", "l1sq", "l2sq", "energy"} {
		p, err := PotentialByName(name, hw.DefaultCostModel())
		if err != nil {
			t.Fatal(err)
		}
		if p.Name() != name {
			t.Errorf("name %q → %q", name, p.Name())
		}
	}
	if _, err := PotentialByName("bogus", hw.DefaultCostModel()); err == nil {
		t.Error("unknown potential must fail")
	}
}
