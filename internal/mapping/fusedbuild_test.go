package mapping

import (
	"context"
	"fmt"
	"math"
	"slices"
	"testing"

	"snnmap/internal/curve"
	"snnmap/internal/hw"
	"snnmap/internal/par"
	"snnmap/internal/pcn"
	"snnmap/internal/place"
	"snnmap/internal/snn"
)

// The three-walk oracle: E_s recomputed over every chunk on each call, and
// the force build as its own per-cell pass, as they stood before the fused
// build — kept verbatim. They share energyRange, forceRun and storeForce
// with the code under test; swapkernel_test.go's oracles and bruteEnergy
// are the checks that share nothing.

func oracleSystemEnergy(e *fdEngine, workers int) float64 {
	n := e.p.NumClusters
	partial := make([]float64, (n+energyChunk-1)/energyChunk)
	par.DoScratch(workers, len(partial), func(ci int, buf *pcn.MergeBuf) {
		partial[ci] = e.energyRange(ci*energyChunk, min((ci+1)*energyChunk, n), buf)
	})
	var total float64
	for _, p := range partial {
		total += p
	}
	return total
}

func oracleBuildAllForces(e *fdEngine, workers int) {
	cores := e.mesh.Cores()
	k := par.Chunks(cores)
	chunk := (cores + k - 1) / k
	par.DoScratch(workers, k, func(ci int, buf *pcn.MergeBuf) {
		hi := int32(min((ci+1)*chunk, cores))
		for idx := int32(ci * chunk); idx < hi; idx++ {
			if e.pl.ClusterAt[idx] != place.None {
				e.rebuildForce(idx, buf)
			}
		}
	})
}

func (e *fdEngine) rebuildForce(idx int32, buf *pcn.MergeBuf) {
	c := e.pl.ClusterAt[idx]
	if c == place.None {
		clear(e.force[int(idx)*4:][:4])
		return
	}
	pa := e.cell(idx)
	to1, w1, to2, w2 := e.sym.Neighbors(int(c), buf)
	up, down, right, left := e.forceRun(idx, pa, to1, w1, 0, 0, 0, 0)
	up, down, right, left = e.forceRun(idx, pa, to2, w2, up, down, right, left)
	e.storeForce(idx, pa, up, down, right, left)
}

// fusedCase is one (PCN, start placement, fault configuration) of the fused
// build matrix. Every PCN spans three energy chunks, the last one partial.
type fusedCase struct {
	name  string
	p     *pcn.PCN
	cfg   FDConfig
	start *place.Placement
	// local is set when a swap's neighborhood stays inside one or two
	// chunks, so some partials must survive a sweep clean.
	local bool
}

func fusedCases(t *testing.T) []fusedCase {
	t.Helper()
	// 1700 dense layers of 5 clusters: every in-row is one broadcast weight
	// and Neighbors concatenates. ragged's layers end in a half-size cluster,
	// so its in-rows are uniform except the last source — stored in full.
	layered := func(name string, width int64) *pcn.PCN {
		p, err := pcn.Expand(snn.SynthDNN(name, 1700, width), pcn.PartitionConfig{
			Constraints: hw.Constraints{NeuronsPerCore: 16}, SplitAtLayers: true})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	dense, ragged := layered("dense", 5*16), layered("ragged", 4*16+8)
	// Non-integer weights, a third of the edges mirrored: every in-row mixed,
	// Neighbors merges, and a changed summation order shows in the bits.
	mixed := fractionalPCN(t, 29, 8500, 30000)

	mesh := hw.MustMesh(102, 100)
	defects := hw.NewDefectMap(mesh)
	for _, idx := range []int{0, 57, 1311, 4242, 8080, 9999} {
		defects.MarkDead(idx)
	}
	hsc := func(p *pcn.PCN, d *hw.DefectMap, cons hw.Constraints) *place.Placement {
		pl, err := InitialPlacementDefects(p, mesh, curve.Hilbert{}, d, cons)
		if err != nil {
			t.Fatal(err)
		}
		return pl
	}
	var cases []fusedCase
	for _, c := range []struct {
		name  string
		p     *pcn.PCN
		local bool
	}{{"dense", dense, true}, {"ragged", ragged, true}, {"mixed", mixed, false}} {
		if n := c.p.NumClusters; n <= 2*energyChunk || n >= 3*energyChunk {
			t.Fatalf("%s: %d clusters, want three energy chunks with the last partial", c.name, n)
		}
		cfg := FDConfig{Defects: defects, Constraints: hw.Constraints{SpareRows: 1}}
		cases = append(cases,
			fusedCase{c.name + "/pristine", c.p, FDConfig{}, hsc(c.p, nil, hw.Constraints{}), c.local},
			fusedCase{c.name + "/defects+spare", c.p, cfg, hsc(c.p, cfg.Defects, cfg.Constraints), c.local})
	}
	return cases
}

// fusedSweeps and fusedLambda keep a run short and its sweeps small: a few
// swaps each, so on the layered nets a sweep dirties some chunks and leaves
// others clean.
const (
	fusedSweeps = 4
	fusedLambda = 0.002
)

// lockstepResult is what the three-walk oracle engine reports for one case.
type lockstepResult struct {
	stats FDStats
	pos   []int32
	// energy[k] is E_s at the head of iteration k, recomputed from scratch.
	energy []float64
	// clean and dirty count the chunks systemEnergy skipped and recomputed.
	clean, dirty int
}

// runLockstep drives the engine under test (fused build, dirty-chunk
// energy) and the three-walk oracle engine through the same sweeps by hand,
// asserting after the build and after every sweep that the dirty-chunk E_s
// equals the from-scratch one bit for bit, and after the build and the last
// sweep that the two engines' force, mutw and affected list agree.
func runLockstep(t *testing.T, name string, c fusedCase, cfg FDConfig) lockstepResult {
	t.Helper()
	ctx := context.Background()
	got := newFDEngine(c.p, c.start.Clone(), cfg)
	want := newFDEngine(c.p, c.start.Clone(), cfg)
	stats := FDStats{InitialEnergy: oracleSystemEnergy(want, cfg.Workers)}
	oracleBuildAllForces(want, cfg.Workers)
	pairs := inMeshPairs(got)

	sameEnergy := func(when string, e float64) {
		t.Helper()
		if scratch := oracleSystemEnergy(got, cfg.Workers); math.Float64bits(e) != math.Float64bits(scratch) {
			t.Fatalf("%s %s: E_s = %v, from scratch %v", name, when, e, scratch)
		}
		if slices.Contains(got.dirty, true) {
			t.Fatalf("%s %s: a chunk is still dirty after systemEnergy", name, when)
		}
	}
	if e0, _ := got.buildAllForces(cfg.Workers); math.Float64bits(e0) != math.Float64bits(stats.InitialEnergy) {
		t.Fatalf("%s: the build walk returns E_s = %v, the oracle engine's own walk %v", name, e0, stats.InitialEnergy)
	}
	sameEnergy("after build", stats.InitialEnergy)
	requireSameState(t, name+" after build", got, want, pairs)
	if brute := bruteEnergy(c.p, c.start, cfg.Potential); math.Abs(stats.InitialEnergy-brute) > 1e-9*brute {
		t.Fatalf("%s: initial E_s %v, direct summation %v", name, stats.InitialEnergy, brute)
	}

	res := lockstepResult{energy: []float64{stats.InitialEnergy}}
	gotStats := stats
	minGain := minGainFor(stats.InitialEnergy)
	gotQ, wantQ := got.initialQueue(cfg.Workers), want.initialQueue(cfg.Workers)
	for len(wantQ) > 0 && stats.Iterations < cfg.MaxIterations {
		for _, side := range []struct {
			e *fdEngine
			q *[]pairTension
			s *FDStats
		}{{got, &gotQ, &gotStats}, {want, &wantQ, &stats}} {
			side.s.Iterations++
			side.e.beginEpoch()
			side.e.applyBatch(ctx, (*side.q)[:swapLimit(cfg.Lambda, len(*side.q))], minGain, side.s)
			*side.q = side.e.nextQueue(*side.q, minGain, &side.s.TensionChecks)
		}
		for _, d := range got.dirty {
			if d {
				res.dirty++
			} else {
				res.clean++
			}
		}
		e := got.systemEnergy(cfg.Workers)
		sameEnergy(fmt.Sprintf("after sweep %d", stats.Iterations), e)
		res.energy = append(res.energy, e)
	}
	requireSameState(t, name+" after the last sweep", got, want, pairs)
	if gotStats != stats || !slices.Equal(gotQ, wantQ) {
		t.Fatalf("%s: engines diverged: stats %+v vs %+v", name, gotStats, stats)
	}
	stats.Converged = len(wantQ) == 0
	stats.FinalEnergy = res.energy[len(res.energy)-1]
	res.stats, res.pos = stats, want.pl.PosOf
	return res
}

var fusedWorkers = []int{1, 2, 4}

// TestFusedBuildEnergyMatrix holds the one-walk build and the dirty-chunk
// E_s to the three-walk oracle over {L1, L1Sq, L2Sq, Energy} × workers
// {1, 2, 4} × {pristine, defects + spare row} × {broadcast rows, rows mixed
// by their last source, all-mixed merged rows}: state and energy bits after
// the build and after every sweep (runLockstep), then FinetuneContext's
// placement and FDStats against the oracle engine's.
func TestFusedBuildEnergyMatrix(t *testing.T) {
	for _, c := range fusedCases(t) {
		clean, dirty, swaps := 0, 0, int64(0)
		for _, pot := range kernelPotentials {
			for _, workers := range fusedWorkers {
				name := fmt.Sprintf("%s/%s/workers=%d", c.name, pot.Name(), workers)
				cfg := c.cfg
				cfg.Potential, cfg.Workers, cfg.Lambda, cfg.MaxIterations = pot, workers, fusedLambda, fusedSweeps
				cfg = cfg.withDefaults()
				want := runLockstep(t, name, c, cfg)
				clean, dirty, swaps = clean+want.clean, dirty+want.dirty, swaps+want.stats.Swaps

				pl := c.start.Clone()
				stats, err := FinetuneContext(context.Background(), c.p, pl, cfg)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				stats.Elapsed = 0
				if stats != want.stats {
					t.Errorf("%s: FDStats %+v, three-walk oracle %+v", name, stats, want.stats)
				}
				if !slices.Equal(pl.PosOf, want.pos) {
					t.Errorf("%s: placement differs from the three-walk oracle's", name)
				}
			}
		}
		if swaps == 0 || dirty == 0 || (c.local && clean == 0) {
			t.Errorf("%s: %d swaps, %d dirty and %d clean chunk visits: the comparison is vacuous", c.name, swaps, dirty, clean)
		}
	}
}

// TestDirtyChunkCheckpointResume runs the same matrix through the
// checkpoint path: the E_s every interval snapshot records is the
// dirty-chunk one and must be the oracle engine's from-scratch value at that
// loop head, and a run resumed from each snapshot — whose partials
// resumeEngine's build refills — must finish on the oracle's FDStats and
// placement at every worker count.
func TestDirtyChunkCheckpointResume(t *testing.T) {
	for _, c := range fusedCases(t) {
		for _, pot := range kernelPotentials {
			name := fmt.Sprintf("%s/%s", c.name, pot.Name())
			cfg := c.cfg
			cfg.Potential, cfg.Workers, cfg.Lambda, cfg.MaxIterations = pot, 1, fusedLambda, fusedSweeps
			cfg = cfg.withDefaults()
			want := runLockstep(t, name, c, cfg)

			var snaps []*Snapshot
			cfg.Checkpoint = &CheckpointConfig{Interval: 1, Fn: func(s *Snapshot) error { snaps = append(snaps, s); return nil }}
			if _, err := FinetuneContext(context.Background(), c.p, c.start.Clone(), cfg); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			cfg.Checkpoint = nil
			if len(snaps) == 0 {
				t.Fatalf("%s: run took no snapshot", name)
			}
			for _, snap := range snaps {
				k := snap.Stats.Iterations
				if got, e := snap.Stats.FinalEnergy, want.energy[k]; math.Float64bits(got) != math.Float64bits(e) {
					t.Fatalf("%s: snapshot at iteration %d records E_s %v, from scratch %v", name, k, got, e)
				}
				for _, workers := range fusedWorkers {
					cfg.Workers = workers
					pl, stats, err := ResumeFinetune(context.Background(), c.p, snap, cfg)
					if err != nil {
						t.Fatalf("%s iteration %d workers=%d: %v", name, k, workers, err)
					}
					stats.Elapsed = 0
					if stats != want.stats {
						t.Errorf("%s iteration %d workers=%d: resumed FDStats %+v, three-walk oracle %+v", name, k, workers, stats, want.stats)
					}
					if !slices.Equal(pl.PosOf, want.pos) {
						t.Errorf("%s iteration %d workers=%d: resumed placement differs from the oracle's", name, k, workers)
					}
				}
			}
		}
	}
}
