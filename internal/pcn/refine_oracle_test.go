package pcn

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"snnmap/internal/hw"
	"snnmap/internal/snn"
)

// refineLevelFullScan is refineLevel as a plain full scan: every pass
// examines every vertex. It is the oracle the worklist must reproduce move
// for move. wakeOnly counts the moves only a waiter wake can schedule: the
// vertex was examined before and neither it nor a neighbour changed part
// since, so only a refusing part's lost occupancy turned its stay into a
// move.
func refineLevelFullScan(lv *gLevel, partOf []int32, partN []int32, partS []int64, npc int, synCap int64) (moves, wakeOnly int64) {
	n := len(lv.neurons)
	gain := make([]float64, len(partN))
	seen := make([]bool, len(partN))
	cand := make([]int32, 0, 16)
	lastSeen := make([]int64, n)
	lastTouch := make([]int64, n)
	for v := range lastSeen {
		lastSeen[v], lastTouch[v] = -1, -1
	}
	var step int64
	for pass := 0; pass < refinePasses; pass++ {
		var passMoves int64
		for vi := 0; vi < n; vi++ {
			step++
			seenBefore, untouched := lastSeen[vi] >= 0, lastTouch[vi] < lastSeen[vi]
			lastSeen[vi] = step
			v := int32(vi)
			cv := partOf[v]
			tos, ws := lv.u.Neighbors(vi)
			boundary := false
			for _, t := range tos {
				if partOf[t] != cv {
					boundary = true
					break
				}
			}
			if !boundary {
				continue
			}
			cand = cand[:0]
			for k, t := range tos {
				d := partOf[t]
				if !seen[d] {
					seen[d] = true
					cand = append(cand, d)
				}
				gain[d] += ws[k]
			}
			internal := gain[cv]
			best := cv
			bestGain := minGain
			for _, d := range cand {
				if d == cv {
					continue
				}
				g := gain[d] - internal
				if g <= bestGain {
					continue
				}
				if int(partN[d])+int(lv.neurons[v]) > npc {
					continue
				}
				if synCap > 0 && partS[d]+lv.synapses[v] > synCap {
					continue
				}
				best = d
				bestGain = g
			}
			for _, d := range cand {
				gain[d] = 0
				seen[d] = false
			}
			if best == cv {
				continue
			}
			partN[cv] -= lv.neurons[v]
			partS[cv] -= lv.synapses[v]
			partN[best] += lv.neurons[v]
			partS[best] += lv.synapses[v]
			partOf[v] = best
			passMoves++
			if seenBefore && untouched {
				wakeOnly++
			}
			lastTouch[vi] = step
			for _, t := range tos {
				lastTouch[t] = step
			}
		}
		moves += passMoves
		if passMoves == 0 {
			break
		}
	}
	return moves, wakeOnly
}

// refineCase is one refinement input: the fine level of a seeded random
// graph (Algorithm 1 at finePC neurons per vertex, so vertex weights vary)
// and a starting assignment under CON_npc = npc. Greedy growth packs parts
// full, so capacity refuses many moves; a random assignment leaves the
// parts uneven, so moves free and fill capacity all the time.
type refineCase struct {
	lv     *gLevel
	partOf []int32
	partN  []int32
	partS  []int64
	npc    int
	synCap int64
}

func newRefineCase(t testing.TB, seed int64, neurons, finePC, npc int, synCap int64, randomParts bool) refineCase {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g, err := snn.RandomGraph(snn.RandomConfig{
		Neurons: neurons, AvgDegree: 6, LocalityBand: 0.03, LongRangeFrac: 0.1, MaxDensity: 1,
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	fineOf, fineN, fineS, fineL, err := assignClusters(g, PartitionConfig{Constraints: hw.Constraints{NeuronsPerCore: finePC}})
	if err != nil {
		t.Fatal(err)
	}
	lv := &gLevel{u: undirectedFromAssignment(g, fineOf, len(fineN), 1), neurons: fineN, synapses: fineS, layer: fineL}
	var partOf []int32
	var parts int
	if randomParts {
		parts = max(2, neurons/npc)
		partOf = make([]int32, len(fineN))
		for v := range partOf {
			partOf[v] = int32(rng.Intn(parts))
		}
	} else {
		partOf, parts = greedyPartition(lv, npc, synCap)
	}
	c := refineCase{lv: lv, partOf: partOf, partN: make([]int32, parts), partS: make([]int64, parts), npc: npc, synCap: synCap}
	for v, p := range partOf {
		c.partN[p] += fineN[v]
		c.partS[p] += fineS[v]
	}
	return c
}

// check runs the worklist refiner (through ar, which may carry scratch of an
// earlier call) and the full-scan oracle on copies of the case and requires
// the same assignment, occupancy and move count bit for bit. It returns the
// oracle's wake-only move count.
func (c refineCase) check(t testing.TB, label string, ar *levelArena) int64 {
	t.Helper()
	gotOf, gotN, gotS := append([]int32(nil), c.partOf...), append([]int32(nil), c.partN...), append([]int64(nil), c.partS...)
	wantOf, wantN, wantS := append([]int32(nil), c.partOf...), append([]int32(nil), c.partN...), append([]int64(nil), c.partS...)
	got := refineLevel(c.lv, gotOf, gotN, gotS, c.npc, c.synCap, ar)
	want, wakeOnly := refineLevelFullScan(c.lv, wantOf, wantN, wantS, c.npc, c.synCap)
	if got != want || !reflect.DeepEqual(gotOf, wantOf) || !reflect.DeepEqual(gotN, wantN) || !reflect.DeepEqual(gotS, wantS) {
		t.Fatalf("%s: worklist refinement made %d moves, full scan %d; assignments equal %v, occupancy equal %v/%v",
			label, got, want, reflect.DeepEqual(gotOf, wantOf), reflect.DeepEqual(gotN, wantN), reflect.DeepEqual(gotS, wantS))
	}
	return wakeOnly
}

// TestRefineLevelMatchesFullScan holds the worklist refiner to the full-scan
// oracle on seeded level graphs under tight CON_npc and CON_spc, with one
// arena shared across cases as multilevelGroup shares it across levels. The
// corpus must contain moves that only a waiter wake schedules, or dropping
// the wake would go unnoticed.
func TestRefineLevelMatchesFullScan(t *testing.T) {
	ar := &levelArena{}
	var wakeOnly, cases int64
	for seed := int64(1); seed <= 12; seed++ {
		for _, npc := range []int{12, 24, 40} {
			for _, synCap := range []int64{0, int64(npc) * 5} {
				for _, randomParts := range []bool{false, true} {
					c := newRefineCase(t, seed, 1500+int(seed)*250, 3, npc, synCap, randomParts)
					wakeOnly += c.check(t, fmt.Sprintf("seed %d npc %d synCap %d random %v", seed, npc, synCap, randomParts), ar)
					cases++
				}
			}
		}
	}
	if wakeOnly == 0 {
		t.Fatalf("none of %d cases has a move only a waiter wake schedules", cases)
	}
	t.Logf("%d cases, %d wake-only moves", cases, wakeOnly)
}

// FuzzRefineLevelMatchesFullScan fuzzes the same equivalence over graph
// size, vertex granularity, capacities and the starting assignment.
func FuzzRefineLevelMatchesFullScan(f *testing.F) {
	f.Add(int64(1), uint16(2000), uint8(3), uint8(24), uint8(5), false)
	f.Add(int64(2), uint16(800), uint8(1), uint8(10), uint8(0), true)
	f.Add(int64(3), uint16(4000), uint8(5), uint8(60), uint8(8), false)
	f.Fuzz(func(t *testing.T, seed int64, neurons uint16, finePC, npc, spcPerNeuron uint8, randomParts bool) {
		n := int(neurons)%5000 + 2
		fine := int(finePC)%8 + 1
		npcCap := int(npc)%96 + fine
		c := newRefineCase(t, seed, n, fine, npcCap, int64(spcPerNeuron%16)*int64(npcCap), randomParts)
		c.check(t, "fuzz", nil)
	})
}
