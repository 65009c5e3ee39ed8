package expt

import (
	"bytes"
	"strings"
	"testing"
)

// TestRecoveryAcceptance is the spare-row acceptance criterion: after a full
// row failure, RemapRows yields a valid placement whose degradation (ΔM_ec of
// the repair) is no worse than per-cluster Remap on the same defect map. On
// LeNet-MNIST the two repairs tie and the structure-preserving shift is kept;
// on LeNet-ImageNet nearby free cells beat the distant spare row, so the
// adaptive choice degrades into exactly Remap's migration — the no-worse
// bound must hold either way.
func TestRecoveryAcceptance(t *testing.T) {
	const eps = 1e-9
	for _, workload := range []string{"LeNet-MNIST", "LeNet-ImageNet"} {
		t.Run(workload, func(t *testing.T) {
			rows, err := recoveryRows(mustWorkload(t, workload), []int{0, 1, 2}, RunOptions{Seed: 1}.withDefaults())
			if err != nil {
				t.Fatal(err)
			}
			if len(rows) != 3 {
				t.Fatalf("got %d sweep rows, want 3", len(rows))
			}
			for _, r := range rows {
				if r.RowShift.EnergyBefore <= 0 {
					t.Fatalf("spares=%d: energies not tracked (cost model missing?): %+v", r.SpareRows, r.RowShift)
				}
				if r.RowShift.DeltaEnergy() > r.PerCluster.DeltaEnergy()+eps {
					t.Errorf("spares=%d: row-shift dM_ec %.6g worse than per-cluster %.6g",
						r.SpareRows, r.RowShift.DeltaEnergy(), r.PerCluster.DeltaEnergy())
				}
				if r.RowShift.Moved == 0 {
					t.Errorf("spares=%d: killed an occupied row but nothing moved", r.SpareRows)
				}
			}
		})
	}
}

// TestRecoveryShiftWinsTies pins the tie rule: on LeNet-MNIST both repairs
// reach the same energy, and the wholesale shift must win the tie.
func TestRecoveryShiftWinsTies(t *testing.T) {
	rows, err := recoveryRows(mustWorkload(t, "LeNet-MNIST"), []int{1, 2}, RunOptions{Seed: 1}.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.RowShift.RowsShifted == 0 {
			t.Errorf("spares=%d: reserved spares present but no wholesale shift happened", r.SpareRows)
		}
	}
}

func TestRecoverySweepReport(t *testing.T) {
	var buf bytes.Buffer
	if err := RecoverySweep(&buf, "LeNet-MNIST", []int{0, 1}, RunOptions{Seed: 1}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Row-failure recovery on LeNet-MNIST", "Spares", "ShiftdM_ec", "RemapdM_ec"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

func TestRecoverySweepRejectsUnknownWorkload(t *testing.T) {
	if err := RecoverySweep(&bytes.Buffer{}, "nope", []int{0}, RunOptions{}); err == nil {
		t.Fatal("unknown workload must fail")
	}
}

func mustWorkload(t *testing.T, name string) *Workload {
	t.Helper()
	wl, err := WorkloadByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return wl
}
