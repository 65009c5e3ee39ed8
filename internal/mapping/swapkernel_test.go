package mapping

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"snnmap/internal/curve"
	"snnmap/internal/geom"
	"snnmap/internal/hw"
	"snnmap/internal/pcn"
	"snnmap/internal/place"
	"snnmap/internal/snn"
)

// The two-pass oracle: the swap step as it stood before the fused kernel —
// rebuild both cells' forces, refresh the touched mutw slots by binary
// search, then walk both neighborhoods again to maintain the connected
// clusters — and the staged queue rebuild, kept verbatim. It shares only
// the engine's state layout, pairsTouching/pairCells/blocked and
// markAffected with the code under test.

// oracleWeight is the combined undirected weight between two clusters (0
// when unconnected) from the PCN's raw out-edges: out(c1→c2) + in(c2→c1),
// the operand order of Symmetric.Weight (internal/pcn's test oracle).
func oracleWeight(p *pcn.PCN, c1, c2 int32) float64 {
	find := func(from, to int32) (float64, bool) {
		tos, ws := p.OutEdges(int(from))
		k, ok := slices.BinarySearch(tos, to)
		if !ok {
			return 0, false
		}
		return ws[k], true
	}
	out, okOut := find(c1, c2)
	in, okIn := find(c2, c1)
	switch {
	case okOut && okIn:
		return out + in
	case okOut:
		return out
	case okIn:
		return in
	}
	return 0
}

func oracleRebuildForce(e *fdEngine, idx int32) {
	f := e.force[int(idx)*4:][:4]
	f[0], f[1], f[2], f[3] = 0, 0, 0, 0
	c := e.pl.ClusterAt[idx]
	if c == place.None {
		return
	}
	pa := e.coord[idx]
	to1, w1, to2, w2 := e.sym.Neighbors(int(c), &e.buf)
	up, down, right, left := oracleForceRun(e, pa, to1, w1, 0, 0, 0, 0)
	up, down, right, left = oracleForceRun(e, pa, to2, w2, up, down, right, left)
	if pa.x > 0 {
		f[geom.Up] = up
	}
	if pa.x < int32(e.mesh.Rows)-1 {
		f[geom.Down] = down
	}
	if pa.y < int32(e.mesh.Cols)-1 {
		f[geom.Right] = right
	}
	if pa.y > 0 {
		f[geom.Left] = left
	}
}

func oracleForceRun(e *fdEngine, pa cellXY, tos []int32, ws []float64, up, down, right, left float64) (float64, float64, float64, float64) {
	ws = ws[:len(tos)]
	l2sq := e.field == fieldL2Sq
	for k, to := range tos {
		q := e.coord[e.pl.PosOf[to]]
		x, y := int(q.x-pa.x), int(q.y-pa.y)
		var su, sd, sr, sl float64
		if l2sq {
			fx, fy := float64(2*x), float64(2*y)
			su, sd, sr, sl = -fx-1, fx-1, fy-1, -fy-1
		} else {
			su, sd, sr, sl = e.steps(x, y)
		}
		w := ws[k]
		up += w * su
		down += w * sd
		right += w * sr
		left += w * sl
	}
	return up, down, right, left
}

func oracleRebuildMutw(e *fdEngine, id int32) {
	a, b, _ := e.pairCells(id)
	ca, cb := e.pl.ClusterAt[a], e.pl.ClusterAt[b]
	if ca == place.None || cb == place.None {
		e.mutw[id] = 0
		return
	}
	e.mutw[id] = oracleWeight(e.p, ca, cb)
}

func oracleTension(e *fdEngine, id int32) float64 {
	if e.blocked(id) {
		return 0
	}
	a, b, d := e.pairCells(id)
	ca, cb := e.pl.ClusterAt[a], e.pl.ClusterAt[b]
	switch {
	case ca == place.None && cb == place.None:
		return 0
	case cb == place.None:
		return e.force[int(a)*4+int(d)]
	case ca == place.None:
		return e.force[int(b)*4+int(d.Opposite())]
	default:
		t := e.force[int(a)*4+int(d)] + e.force[int(b)*4+int(d.Opposite())]
		if w := e.mutw[id]; w != 0 {
			t -= w * e.unitCorr
		}
		return t
	}
}

func oracleSwapPair(e *fdEngine, id int32) {
	a, b, _ := e.pairCells(id)
	ca, cb := e.pl.ClusterAt[a], e.pl.ClusterAt[b]
	pa, pb := e.coord[a], e.coord[b]

	e.pl.SwapCores(a, b)
	oracleRebuildForce(e, a)
	oracleRebuildForce(e, b)
	var scratch [8]int32
	for _, pid := range e.pairsTouching(b, e.pairsTouching(a, scratch[:0])) {
		oracleRebuildMutw(e, pid)
	}

	if ca != place.None {
		oracleMaintainNeighbors(e, ca, cb, pa, pb)
		e.markAffected(ca)
	}
	if cb != place.None {
		oracleMaintainNeighbors(e, cb, ca, pb, pa)
		e.markAffected(cb)
	}
}

func oracleMaintainNeighbors(e *fdEngine, moved, other int32, oldPos, newPos cellXY) {
	to1, w1, to2, w2 := e.sym.Neighbors(int(moved), &e.buf)
	oracleMaintainRun(e, other, oldPos, newPos, to1, w1)
	oracleMaintainRun(e, other, oldPos, newPos, to2, w2)
}

func oracleMaintainRun(e *fdEngine, other int32, oldPos, newPos cellXY, tos []int32, ws []float64) {
	rows, cols := int32(e.mesh.Rows), int32(e.mesh.Cols)
	ws = ws[:len(tos)]
	for k, to := range tos {
		if to == other {
			continue
		}
		w := ws[k]
		pkIdx := e.pl.PosOf[to]
		pk := e.coord[pkIdx]
		f := e.force[int(pkIdx)*4:][:4]
		newU, newD, newR, newL := e.steps(int(newPos.x-pk.x), int(newPos.y-pk.y))
		oldU, oldD, oldR, oldL := e.steps(int(oldPos.x-pk.x), int(oldPos.y-pk.y))
		if pk.x > 0 {
			f[geom.Up] += w * (newU - oldU)
		}
		if pk.x < rows-1 {
			f[geom.Down] += w * (newD - oldD)
		}
		if pk.y < cols-1 {
			f[geom.Right] += w * (newR - oldR)
		}
		if pk.y > 0 {
			f[geom.Left] += w * (newL - oldL)
		}
		e.markAffected(to)
	}
}

func oracleNextQueue(e *fdEngine, queue []pairTension, minGain float64, checks *int64) []pairTension {
	e.epoch++
	var ids []int32
	for _, pt := range queue {
		if e.pairMark[pt.id] != e.epoch {
			e.pairMark[pt.id] = e.epoch
			ids = append(ids, pt.id)
		}
	}
	var scratch [4]int32
	for _, c := range e.affected {
		for _, id := range e.pairsTouching(e.pl.PosOf[c], scratch[:0]) {
			if e.pairMark[id] != e.epoch {
				e.pairMark[id] = e.epoch
				ids = append(ids, id)
			}
		}
	}
	*checks += int64(len(ids))

	next := queue[:0]
	for _, id := range ids {
		if t := oracleTension(e, id); t > minGain {
			next = append(next, pairTension{id: id, tension: t})
		}
	}
	e.finalizeQueue(next)
	return next
}

// newOracleEngine builds the engine state the pre-kernel constructor and
// force build produced: forces from oracleRebuildForce, every in-mesh mutw
// slot from oracleRebuildMutw.
func newOracleEngine(p *pcn.PCN, pl *place.Placement, cfg FDConfig) *fdEngine {
	e := newFDEngine(p, pl, cfg)
	for _, id := range inMeshPairs(e) {
		oracleRebuildMutw(e, id)
	}
	for idx := range e.coord {
		if pl.ClusterAt[idx] != place.None {
			oracleRebuildForce(e, int32(idx))
		}
	}
	return e
}

// inMeshPairs lists every pair id whose two cells are on the mesh, each once.
func inMeshPairs(e *fdEngine) []int32 {
	var ids []int32
	for idx := range e.coord {
		var scratch [4]int32
		for _, id := range e.pairsTouching(int32(idx), scratch[:0]) {
			if id/2 == int32(idx) {
				ids = append(ids, id)
			}
		}
	}
	return ids
}

// fractionalPCN is randomPCN with non-integer weights — so a changed
// summation order or a swapped mutual-weight operand shows in the bits —
// and a third of the edges mirrored: mutual pairs and back edges interleave
// a cluster's in- and out-neighbors, the Symmetric.Neighbors MergeBuf path.
func fractionalPCN(t testing.TB, seed int64, n, e int) *pcn.PCN {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var b snn.GraphBuilder
	b.AddNeurons(n, -1)
	for i := 0; i < e; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v {
			continue
		}
		b.AddSynapse(u, v, rng.Float64()*9+0.1)
		if rng.Intn(3) == 0 {
			b.AddSynapse(v, u, rng.Float64()*9+0.1)
		}
	}
	res, err := pcn.Partition(b.Build(), pcn.PartitionConfig{Constraints: hw.Constraints{NeuronsPerCore: 1}})
	if err != nil {
		t.Fatal(err)
	}
	return res.PCN
}

// kernelScenario is one (mesh, start placement, fault configuration) the
// kernel suites run on; every mesh has more cells than clusters.
type kernelScenario struct {
	name  string
	cfg   FDConfig
	start *place.Placement
}

func kernelScenarios(t *testing.T, p *pcn.PCN) []kernelScenario {
	t.Helper()
	random := func(rows, cols int, seed int64) *place.Placement {
		pl, err := place.Random(p.NumClusters, hw.MustMesh(rows, cols), rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		return pl
	}
	faulty := hw.MustMesh(8, 7)
	defects := hw.NewDefectMap(faulty)
	for _, idx := range []int{0, 9, 24, 33} {
		defects.MarkDead(idx)
	}
	for _, idx := range []int{5, 17, 30} {
		if err := defects.Degrade(idx, 0.4); err != nil {
			t.Fatal(err)
		}
	}
	cons := hw.Constraints{NeuronsPerCore: 1, SpareRows: 1}
	hsc, err := InitialPlacementDefects(p, faulty, curve.Hilbert{}, defects, cons)
	if err != nil {
		t.Fatal(err)
	}
	return []kernelScenario{
		{"wide", FDConfig{}, random(6, 8, 3)},
		{"tall", FDConfig{}, random(9, 5, 4)},
		{"row", FDConfig{}, random(1, 44, 5)},
		{"defects+spare", FDConfig{Defects: defects, Constraints: cons}, hsc},
	}
}

var kernelPotentials = []Potential{L1{}, L1Sq{}, L2Sq{}, EnergyPotential{Cost: hw.DefaultCostModel()}}

// requireSameState asserts the kernel engine and the two-pass oracle agree
// bit for bit on every force entry and every in-mesh mutw slot (the latter
// also against the adjacency itself), and on the affected list as a sequence.
func requireSameState(t *testing.T, when string, got, want *fdEngine, pairs []int32) {
	t.Helper()
	for i := range want.force {
		if math.Float64bits(got.force[i]) != math.Float64bits(want.force[i]) {
			t.Fatalf("%s: force[cell %d dir %d] = %v, two-pass %v", when, i/4, i%4, got.force[i], want.force[i])
		}
	}
	for _, id := range pairs {
		a, b, _ := got.pairCells(id)
		var w float64
		if ca, cb := got.pl.ClusterAt[a], got.pl.ClusterAt[b]; ca != place.None && cb != place.None {
			w = oracleWeight(got.p, ca, cb)
		}
		if math.Float64bits(got.mutw[id]) != math.Float64bits(want.mutw[id]) || math.Float64bits(got.mutw[id]) != math.Float64bits(w) {
			t.Fatalf("%s: mutw[%d] = %v, two-pass %v, adjacency %v", when, id, got.mutw[id], want.mutw[id], w)
		}
	}
	if !slices.Equal(got.affected, want.affected) {
		t.Fatalf("%s: affected %v, two-pass %v", when, got.affected, want.affected)
	}
}

// TestSwapKernelMatchesTwoPass drives the fused kernel and the two-pass
// oracle through the same swaps — every legal pair of the mesh in a shuffled
// order, borders and empty cells included, three rounds so the affected
// dedupe sees repeats — and compares the whole engine state after each one,
// and the new tension prologue against the old at every round's end.
func TestSwapKernelMatchesTwoPass(t *testing.T) {
	p := fractionalPCN(t, 23, 38, 260)
	for _, sc := range kernelScenarios(t, p) {
		for _, pot := range kernelPotentials {
			for _, workers := range []int{1, 3} {
				name := fmt.Sprintf("%s/%s/workers=%d", sc.name, pot.Name(), workers)
				cfg := sc.cfg
				cfg.Potential = pot
				cfg = cfg.withDefaults()
				got := newFDEngine(p, sc.start.Clone(), cfg)
				got.buildAllForces(workers)
				want := newOracleEngine(p, sc.start.Clone(), cfg)
				pairs := inMeshPairs(got)
				requireSameState(t, name+" after build", got, want, pairs)

				rng := rand.New(rand.NewSource(7))
				swaps := 0
				for round := 0; round < 3; round++ {
					got.beginEpoch()
					want.beginEpoch()
					order := slices.Clone(pairs)
					rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
					for _, id := range order {
						if got.blocked(id) {
							continue
						}
						got.swapPair(id)
						oracleSwapPair(want, id)
						swaps++
						requireSameState(t, fmt.Sprintf("%s round %d after swap %d", name, round, id), got, want, pairs)
					}
					for _, id := range pairs {
						if g, w := got.tension(id), oracleTension(want, id); math.Float64bits(g) != math.Float64bits(w) {
							t.Fatalf("%s round %d: tension(%d) = %v, two-pass %v", name, round, id, g, w)
						}
					}
				}
				if swaps < len(pairs) {
					t.Fatalf("%s: only %d swaps over %d pairs, the comparison is thin", name, swaps, len(pairs))
				}
			}
		}
	}
}

// TestNextQueueContents runs Algorithm 3's loop by hand on both engines and
// asserts after every iteration that the one-pass rebuild yields the staged
// one's queue — same ids and tension bits in the same order — and the same
// TensionChecks.
func TestNextQueueContents(t *testing.T) {
	p := fractionalPCN(t, 23, 38, 260)
	const minGain = 1e-9
	for _, sc := range kernelScenarios(t, p) {
		for _, pot := range kernelPotentials {
			for _, fullSort := range []bool{false, true} {
				name := fmt.Sprintf("%s/%s/fullsort=%v", sc.name, pot.Name(), fullSort)
				cfg := sc.cfg
				cfg.Potential, cfg.fullSort = pot, fullSort
				cfg = cfg.withDefaults()
				got := newFDEngine(p, sc.start.Clone(), cfg)
				got.buildAllForces(1)
				want := newOracleEngine(p, sc.start.Clone(), cfg)
				gotQ, wantQ := got.initialQueue(1), want.initialQueue(1)
				var gotChecks, wantChecks int64
				iters := 0
				for ; iters < 200 && len(wantQ) > 0; iters++ {
					if !slices.Equal(gotQ, wantQ) {
						t.Fatalf("%s iteration %d: queue %v, staged %v", name, iters, gotQ, wantQ)
					}
					got.beginEpoch()
					want.beginEpoch()
					for _, pt := range wantQ[:swapLimit(cfg.Lambda, len(wantQ))] {
						if oracleTension(want, pt.id) > minGain {
							oracleSwapPair(want, pt.id)
							got.swapPair(pt.id)
						}
					}
					gotQ = got.nextQueue(gotQ, minGain, &gotChecks)
					wantQ = oracleNextQueue(want, wantQ, minGain, &wantChecks)
					if gotChecks != wantChecks {
						t.Fatalf("%s iteration %d: %d tension checks, staged %d", name, iters, gotChecks, wantChecks)
					}
				}
				if len(gotQ) != len(wantQ) {
					t.Fatalf("%s: final queue has %d entries, staged %d", name, len(gotQ), len(wantQ))
				}
				if iters < 3 {
					t.Fatalf("%s: drained in %d iterations, the comparison is thin", name, iters)
				}
			}
		}
	}
}

// TestResumeRebuildsMutw asserts a resumed engine carries the mutual-weight
// cache of a fresh engine built on the snapshot's placement (and of the
// adjacency itself), and the snapshot's forces rather than rebuilt ones.
func TestResumeRebuildsMutw(t *testing.T) {
	p := fractionalPCN(t, 23, 38, 260)
	start, err := place.Random(p.NumClusters, hw.MustMesh(6, 8), rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	var snaps []*Snapshot
	cfg := FDConfig{Checkpoint: &CheckpointConfig{
		Interval: 2,
		Fn:       func(s *Snapshot) error { snaps = append(snaps, s); return nil },
	}}
	if _, err := FinetuneContext(context.Background(), p, start, cfg); err != nil {
		t.Fatal(err)
	}
	if len(snaps) == 0 {
		t.Fatal("run took no snapshot")
	}
	cfg = FDConfig{}.withDefaults()
	for i, snap := range snaps {
		for _, workers := range []int{1, 3} {
			cfg.Workers = workers
			e, queue := resumeEngine(p, snap, cfg)
			fresh := newOracleEngine(p, snap.Placement.Clone(), cfg)
			copy(fresh.force, snap.Force)
			requireSameState(t, fmt.Sprintf("snapshot %d workers=%d", i, workers), e, fresh, inMeshPairs(e))
			if len(queue) != len(snap.QueueIDs) {
				t.Fatalf("snapshot %d: resumed queue has %d entries, snapshot %d", i, len(queue), len(snap.QueueIDs))
			}
		}
	}
}
