package mapping

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"snnmap/internal/hw"
	"snnmap/internal/pcn"
	"snnmap/internal/place"
	"snnmap/internal/snn"
)

// moveDeltaPCN partitions a seeded random graph of n single-neuron
// clusters whose edges come in reciprocal pairs on every fourth source, so
// Symmetric merges both directions of them, and whose weights are 1 except
// into every third target, so most in-rows are broadcast (one stored
// weight) and the rest are not.
func moveDeltaPCN(t *testing.T, n int, seed int64) *pcn.PCN {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var b snn.GraphBuilder
	b.AddNeurons(n, -1)
	seen := map[[2]int]bool{}
	add := func(u, v int) {
		if u == v || seen[[2]int{u, v}] {
			return
		}
		seen[[2]int{u, v}] = true
		w := 1.0
		if v%3 == 0 {
			w = rng.Float64()*9 + 0.5
		}
		b.AddSynapse(u, v, w)
	}
	for i := 0; i < 4*n; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		add(u, v)
		if u%4 == 0 {
			add(v, u)
		}
	}
	res, err := pcn.Partition(b.Build(), pcn.PartitionConfig{Constraints: hw.Constraints{NeuronsPerCore: 1}})
	if err != nil {
		t.Fatal(err)
	}
	return res.PCN
}

// TestMoveEnergyDeltaMatchesWalks holds MoveEnergyDelta to two full Eq. 9
// walks, before and after the moves, on random PCNs with reciprocal edges
// and broadcast rows: a swap, a move into an empty core, a chain (a→b,
// b→c), a whole row shifted (its clusters' mutual edges move with it), a
// random permutation over occupied and free cores, and the empty set. The
// moves price to the same bits before and after they are applied.
func TestMoveEnergyDeltaMatchesWalks(t *testing.T) {
	const rows, cols, used = 10, 8, 7 // clusters fill rows [0, used); the rest are free
	mesh, cost := hw.MustMesh(rows, cols), hw.DefaultCostModel()
	broadcast, reciprocal := false, false
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := moveDeltaPCN(t, 36+rng.Intn(20), seed)
		var buf pcn.MergeBuf
		neighbours := 0
		for c := 0; c < p.NumClusters; c++ {
			to1, w1, to2, w2 := p.Symmetric().Neighbors(c, &buf)
			broadcast = broadcast || len(w1) != len(to1) || len(w2) != len(to2)
			neighbours += len(to1) + len(to2)
		}
		reciprocal = reciprocal || int64(neighbours) < 2*p.NumEdges()
		cells := rng.Perm(used * cols)[:p.NumClusters]
		pos := make([]int32, len(cells))
		for c, idx := range cells {
			pos[c] = int32(idx)
		}
		before := placementAt(t, mesh, pos)
		free := func() int32 { return int32(used*cols + rng.Intn((rows-used)*cols)) }
		occupied := func() (int, int32) { c := rng.Intn(p.NumClusters); return c, pos[c] }

		type set struct {
			name  string
			moves []Move
		}
		a, pa := occupied()
		b, pb := occupied()
		for b == a {
			b, pb = occupied()
		}
		sets := []set{
			{"empty", nil},
			{"swap", []Move{{a, pa, pb}, {b, pb, pa}}},
			{"into empty core", []Move{{a, pa, free()}}},
			{"chain", []Move{{a, pa, pb}, {b, pb, free()}}},
		}
		r, to := rng.Intn(used), used+rng.Intn(rows-used)
		var shift []Move
		for y := 0; y < cols; y++ {
			if c := before.ClusterAt[r*cols+y]; c != place.None {
				shift = append(shift, Move{int(c), int32(r*cols + y), int32(to*cols + y)})
			}
		}
		sets = append(sets, set{"row shift", shift})
		var perm []Move
		var targets []int32
		for _, c := range rng.Perm(p.NumClusters)[:10] {
			perm = append(perm, Move{C: c, From: pos[c]})
			targets = append(targets, pos[c])
		}
		for len(targets) < 14 {
			if idx := free(); !slices.Contains(targets, idx) {
				targets = append(targets, idx)
			}
		}
		rng.Shuffle(len(targets), func(i, j int) { targets[i], targets[j] = targets[j], targets[i] })
		for i := range perm {
			perm[i].To = targets[i]
		}
		sets = append(sets, set{"permutation", perm})

		for _, set := range sets {
			moves := set.moves
			t.Run(fmt.Sprintf("seed %d/%s", seed, set.name), func(t *testing.T) {
				after := append([]int32(nil), pos...)
				for _, m := range moves {
					after[m.C] = m.To
				}
				moved := placementAt(t, mesh, after)
				want := InterconnectEnergy(p, moved, cost) - InterconnectEnergy(p, before, cost)
				got := MoveEnergyDelta(p, before, cost, moves)
				if math.Abs(got-want) > 1e-9*InterconnectEnergy(p, before, cost) {
					t.Errorf("ΔM_ec %v, two walks %v", got, want)
				}
				if applied := MoveEnergyDelta(p, moved, cost, moves); math.Float64bits(applied) != math.Float64bits(got) {
					t.Errorf("priced after the moves %v, before %v", applied, got)
				}
			})
		}
	}
	if !broadcast || !reciprocal {
		t.Fatalf("inputs hold broadcast rows %v, reciprocal edges %v; want both", broadcast, reciprocal)
	}
}
