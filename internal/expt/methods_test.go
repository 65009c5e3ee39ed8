package expt

import (
	"errors"
	"math/rand"
	"slices"
	"testing"

	"snnmap/internal/hw"
	"snnmap/internal/mapping"
	"snnmap/internal/place"
)

// TestEveryMethodHonorsDefectsAndSpareRows runs every method of both lineups
// on a mesh with a reserved spare row, with and without dead cores. A method
// either returns a placement off the dead cores and out of the spare row, or
// refuses with ErrBadConfig; only the comparison searches, which place on a
// pristine mesh only, may refuse.
func TestEveryMethodHonorsDefectsAndSpareRows(t *testing.T) {
	wl, err := WorkloadByName("LeNet-MNIST")
	if err != nil {
		t.Fatal(err)
	}
	p, _, err := wl.Build()
	if err != nil {
		t.Fatal(err)
	}
	mesh := hw.MustMesh(5, 5)
	cons := hw.Constraints{SpareRows: 1}
	dead := hw.NewDefectMap(mesh)
	for _, idx := range []int{0, 6, 12, 13} {
		dead.MarkDead(idx)
	}
	mayRefuse := map[string]bool{"TrueNorth": true, "DFSynthesizer": true, "PSO": true}
	for _, sc := range []struct {
		name string
		d    *hw.DefectMap
	}{{"spare", nil}, {"dead+spare", dead}} {
		for _, m := range append(Figure8Methods(), ComparisonMethods()...) {
			pl, _, err := m.Run(p, mesh, RunOptions{Seed: 1, Defects: sc.d, Constraints: cons})
			if err != nil {
				if !mayRefuse[m.Name] || !errors.Is(err, mapping.ErrBadConfig) {
					t.Errorf("%s/%s: %v", sc.name, m.Name, err)
				}
				continue
			}
			if err := pl.Validate(); err != nil {
				t.Errorf("%s/%s: %v", sc.name, m.Name, err)
			}
			if err := pl.ValidateDefects(sc.d); err != nil {
				t.Errorf("%s/%s: %v", sc.name, m.Name, err)
			}
			for idx := cons.UsableRows(mesh) * mesh.Cols; idx < mesh.Cores(); idx++ {
				if c := pl.ClusterAt[idx]; c != place.None {
					t.Errorf("%s/%s: cluster %d in the spare row at core %d", sc.name, m.Name, c, idx)
				}
			}
		}
	}
}

// TestRandomMethodIsPlaceRandom pins the Random baseline's bits: on a PCN in
// topological order the random visit order gives cluster j the cell Perm[j],
// which is place.Random's assignment under a generator of the same seed.
func TestRandomMethodIsPlaceRandom(t *testing.T) {
	wl, err := WorkloadByName("CNN_65K")
	if err != nil {
		t.Fatal(err)
	}
	p, mesh, err := wl.Build()
	if err != nil {
		t.Fatal(err)
	}
	if !p.Monotone() {
		t.Fatal("CNN_65K must be in topological order")
	}
	for seed := int64(1); seed <= 3; seed++ {
		got, _, err := RandomMethod().Run(p, mesh, RunOptions{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		want, err := place.Random(p.NumClusters, mesh, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got.PosOf, want.PosOf) {
			t.Errorf("seed %d: Random method differs from place.Random", seed)
		}
	}
}
