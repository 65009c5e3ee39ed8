// Package mapping implements the paper's contribution (§4): initial
// placement along a space-filling curve after topological sorting (Eq. 17)
// and the Force-Directed fine-tuning algorithm (Algorithm 3) with the
// potential-field family of §4.4.2.
package mapping

import (
	"fmt"

	"snnmap/internal/geom"
	"snnmap/internal/hw"
)

// Potential is the potential-field shape u(p) of Eq. 18: the potential
// energy a unit-weight cluster gains at relative position p from a field
// origin. All potentials used by the paper are symmetric (u(p) = u(−p)),
// which the FD algorithm relies on; implementations must preserve that.
type Potential interface {
	// Name returns the registry name ("l1", "l1sq", "l2sq", "energy").
	Name() string
	// Eval returns u(p) for the relative position p.
	Eval(p geom.Point) float64
}

// unitZero returns u of a unit step and u(0). FD corrects the tension of
// mutually connected adjacent clusters with them, and a snapshot records
// them to tell potentials of one name apart.
func unitZero(pot Potential) (unit, zero float64) {
	return pot.Eval(geom.Point{Y: 1}), pot.Eval(geom.Point{})
}

// L1 is u_a(p) = |x| + |y| (Eq. 19): a uniform field whose total system
// energy is proportional to total weighted wire length.
type L1 struct{}

// Name implements Potential.
func (L1) Name() string { return "l1" }

// Eval implements Potential.
func (L1) Eval(p geom.Point) float64 { return float64(p.L1()) }

// L1Sq is u_b(p) = (|x| + |y|)² (Eq. 20): denser away from the origin, so
// long connections are pulled in first.
type L1Sq struct{}

// Name implements Potential.
func (L1Sq) Name() string { return "l1sq" }

// Eval implements Potential.
func (L1Sq) Eval(p geom.Point) float64 {
	d := float64(p.L1())
	return d * d
}

// L2Sq is u_c(p) = x² + y² (Eq. 21): the quadratic Euclidean field; the
// paper's best-quality configuration (method j of Figure 8) combines it
// with an HSC initial placement.
type L2Sq struct{}

// Name implements Potential.
func (L2Sq) Name() string { return "l2sq" }

// Eval implements Potential.
func (L2Sq) Eval(p geom.Point) float64 { return float64(p.L2Sq()) }

// EnergyPotential is u(p) = (‖p‖+1)·EN_r + ‖p‖·EN_w (Eq. 25), which makes
// the FD algorithm minimize the metric M_ec exactly (Eq. 26).
type EnergyPotential struct {
	Cost hw.CostModel
}

// Name implements Potential.
func (EnergyPotential) Name() string { return "energy" }

// Eval implements Potential.
func (e EnergyPotential) Eval(p geom.Point) float64 {
	return e.Cost.SpikeEnergy(p.L1())
}

// fieldKind names a built-in potential whose values are integers, resolved
// once per FD engine so the O(E) kernels evaluate it without an interface
// call. For these u(p) and u(p−δ) are integers below 2^53, so their float64
// difference is exact and equals the float64 of the integer closed form bit
// for bit. EnergyPotential (non-integer cost parameters) and any
// caller-defined Potential stay fieldEval and go through Eval.
type fieldKind uint8

const (
	fieldEval fieldKind = iota
	fieldL1
	fieldL1Sq
	fieldL2Sq
)

func closedForm(pot Potential) fieldKind {
	switch pot.(type) {
	case L1:
		return fieldL1
	case L1Sq:
		return fieldL1Sq
	case L2Sq:
		return fieldL2Sq
	}
	return fieldEval
}

// at returns u((x, y)) of a closed-form field.
func (k fieldKind) at(x, y int) int {
	switch k {
	case fieldL1:
		return geom.Abs(x) + geom.Abs(y)
	case fieldL1Sq:
		d := geom.Abs(x) + geom.Abs(y)
		return d * d
	case fieldL2Sq:
		return x*x + y*y
	}
	panic("mapping: potential has no closed form")
}

// steps returns u(p) − u(p−δ) at p = (x, y) for δ = up (−1,0), down (1,0),
// right (0,1), left (0,−1) of a closed-form field. The step to p−δ changes
// |x| or |y| by s = ±1, so with d = |x|+|y|: L1 gives −s, L1Sq gives
// d² − (d+s)² = −s·2d − 1, and L2Sq gives x² − (x±1)² = ∓2x − 1.
func (k fieldKind) steps(x, y int) (up, down, right, left int) {
	if k == fieldL2Sq {
		return -2*x - 1, 2*x - 1, 2*y - 1, -2*y - 1
	}
	sUp, sDown, sRight, sLeft := 1, -1, -1, 1
	if x < 0 {
		sUp = -1
	}
	if x <= 0 {
		sDown = 1
	}
	if y <= 0 {
		sRight = 1
	}
	if y < 0 {
		sLeft = -1
	}
	switch k {
	case fieldL1:
		return -sUp, -sDown, -sRight, -sLeft
	case fieldL1Sq:
		d2 := 2 * (geom.Abs(x) + geom.Abs(y))
		return -sUp*d2 - 1, -sDown*d2 - 1, -sRight*d2 - 1, -sLeft*d2 - 1
	}
	panic("mapping: potential has no closed form")
}

// PotentialByName returns the named potential; "energy" uses the provided
// cost model.
func PotentialByName(name string, cost hw.CostModel) (Potential, error) {
	switch name {
	case "l1":
		return L1{}, nil
	case "l1sq":
		return L1Sq{}, nil
	case "l2sq":
		return L2Sq{}, nil
	case "energy":
		return EnergyPotential{Cost: cost}, nil
	}
	return nil, fmt.Errorf("mapping: unknown potential %q", name)
}
