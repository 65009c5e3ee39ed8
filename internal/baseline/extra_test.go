package baseline

import (
	"testing"
	"time"

	"snnmap/internal/hw"
	"snnmap/internal/toposort"
)

func TestPACMANPlacesInTopologicalScanOrder(t *testing.T) {
	p := layeredPCN(t, 4, 4, 2) // 4 layers × 2 clusters
	mesh := hw.MustMesh(3, 3)
	pl, stats, err := PACMAN(p, mesh, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := pl.Validate(); err != nil {
		t.Fatal(err)
	}
	if stats.Moves != int64(p.NumClusters) {
		t.Errorf("moves = %d, want %d", stats.Moves, p.NumClusters)
	}
	// First-come-first-served: the j-th cluster in topological order sits
	// on core j.
	order := toposort.Order(p)
	for j, c := range order {
		if pl.PosOf[c] != int32(j) {
			t.Errorf("cluster %d (topo pos %d) on core %d", c, j, pl.PosOf[c])
		}
	}
}

func TestPACMANBeatsRandomOnChains(t *testing.T) {
	p := layeredPCN(t, 8, 4, 2)
	mesh := hw.MustMesh(4, 4)
	cost := hw.DefaultCostModel()
	pm, _, err := PACMAN(p, mesh, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rd, _, err := Random(p, mesh, Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if placementEnergy(p, pm, cost) >= placementEnergy(p, rd, cost) {
		t.Error("PACMAN's scan order should beat random on a layered chain")
	}
}

func TestSimulatedAnnealingImprovesEnergy(t *testing.T) {
	p := randomPCN(t, 17, 25, 250)
	mesh := hw.MustMesh(6, 6)
	cost := hw.DefaultCostModel()
	sa, stats, err := annealWith(p, mesh, Options{Seed: 3}, annealSchedule{
		movesPerEpoch: 200, coolingRate: 0.85, finalTemperatureRatio: 1e-4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sa.Validate(); err != nil {
		t.Fatal(err)
	}
	if stats.Moves == 0 {
		t.Error("annealing accepted no moves")
	}
	rd, _, err := Random(p, mesh, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if placementEnergy(p, sa, cost) >= placementEnergy(p, rd, cost) {
		t.Error("annealing must improve on its random start")
	}
}

func TestSimulatedAnnealingDeterminism(t *testing.T) {
	p := randomPCN(t, 29, 16, 120)
	mesh := hw.MustMesh(4, 4)
	cfg := annealSchedule{movesPerEpoch: 64, coolingRate: 0.7, finalTemperatureRatio: 1e-4}
	a, _, err := annealWith(p, mesh, Options{Seed: 9}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := annealWith(p, mesh, Options{Seed: 9}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.PosOf {
		if a.PosOf[i] != b.PosOf[i] {
			t.Fatal("same seed must give the same annealed placement")
		}
	}
}

func TestSimulatedAnnealingBudget(t *testing.T) {
	p := randomPCN(t, 31, 64, 800)
	mesh := hw.MustMesh(9, 9)
	pl, stats, err := SimulatedAnnealing(p, mesh, Options{Seed: 1, Budget: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	if !stats.EarlyStopped {
		t.Error("nanosecond budget must early-stop")
	}
	if err := pl.Validate(); err != nil {
		t.Error("early-stopped placement must stay valid:", err)
	}
}

func TestSimulatedAnnealingReturnsBestNotLast(t *testing.T) {
	// With a hot final temperature segment the last state can be worse
	// than the best seen; the returned placement must be the best.
	p := randomPCN(t, 41, 20, 200)
	mesh := hw.MustMesh(5, 5)
	cost := hw.DefaultCostModel()
	pl, _, err := annealWith(p, mesh, Options{Seed: 2}, annealSchedule{
		movesPerEpoch:         100,
		coolingRate:           0.9,
		finalTemperatureRatio: 0.5, // stop while still hot
	})
	if err != nil {
		t.Fatal(err)
	}
	rd, _, err := Random(p, mesh, Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if placementEnergy(p, pl, cost) > placementEnergy(p, rd, cost) {
		t.Error("returned placement is worse than the random start: best-tracking broken")
	}
}
