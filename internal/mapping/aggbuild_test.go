package mapping

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"snnmap/internal/curve"
	"snnmap/internal/hw"
	"snnmap/internal/pcn"
	"snnmap/internal/place"
	"snnmap/internal/snn"
)

// aggCase is one input of the aggregate-build suite: a PCN and its start
// placement, and what the L2Sq build must report about itself, so each
// fallback condition of blocks is shown to fire where the case aims it.
type aggCase struct {
	name  string
	p     *pcn.PCN
	cfg   FDConfig
	start *place.Placement
	// maxRun, when set, replaces the engine's int64-overflow run limit.
	maxRun int64
	// want holds for the L2Sq build's counts over chunks energy chunks.
	want  func(st buildStats, chunks int) bool
	about string
}

// mostlyClosed: every chunk summed in closed form, and only a cluster per
// layer and chunk start walked (its runs had no predecessor to repeat).
func mostlyClosed(st buildStats, chunks int) bool {
	return st.closedChunks == chunks && st.aggregated > 3*st.walked
}

func someWalked(st buildStats, _ int) bool { return st.walked > 0 }

func allWalked(p *pcn.PCN) func(buildStats, int) bool {
	return func(st buildStats, _ int) bool { return st.walked == p.NumClusters }
}

func aggCases(t *testing.T) []aggCase {
	t.Helper()
	mesh := hw.MustMesh(102, 100)
	hsc := func(p *pcn.PCN, mesh hw.Mesh) *place.Placement {
		pl, err := InitialPlacementDefects(p, mesh, curve.Hilbert{}, nil, hw.Constraints{})
		if err != nil {
			t.Fatal(err)
		}
		return pl
	}
	expand := func(n *snn.Net, npc int) *pcn.PCN {
		p, err := pcn.Expand(n, pcn.PartitionConfig{Constraints: hw.Constraints{NeuronsPerCore: npc}, SplitAtLayers: true})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	// Dense layers of 16-neuron clusters at a given spike rate: weight
	// 16·width·rate/clusters.
	rated := func(name string, layers, clusters int, rate float64) *pcn.PCN {
		n := snn.SynthDNN(name, layers, int64(clusters)*16)
		for i := range n.Layers {
			n.Layers[i].Rate = rate
		}
		return expand(n, 16)
	}

	var cases []aggCase
	for _, c := range fusedCases(t) {
		ac := aggCase{name: c.name, p: c.p, cfg: c.cfg, start: c.start, want: someWalked,
			about: "rows mixed by a ragged last cluster, or merged and fractional"}
		if c.p.Name == "dense" {
			ac.want, ac.about = mostlyClosed, "closed form"
		}
		cases = append(cases, ac)
	}
	dnn, cnn := expand(snn.DNN268M(), 4096), expand(snn.CNN268M(), 4096)
	cases = append(cases,
		aggCase{name: "DNN_268M", p: dnn, start: hsc(dnn, hw.MeshFor(dnn.NumClusters)), want: mostlyClosed, about: "closed form"},
		// Sliding windows: a source's out-row is its predecessor's shifted.
		aggCase{name: "CNN_268M", p: cnn, start: hsc(cnn, hw.MeshFor(cnn.NumClusters)),
			want:  func(st buildStats, _ int) bool { return st.aggregated < cnn.NumClusters/100 },
			about: "almost every cluster walked (runs not repeated)"})

	// Weight 76.8: one weight per row, not an integer.
	fractional := rated("fractional", 1700, 5, 0.3)
	cases = append(cases, aggCase{name: "fractional", p: fractional, start: hsc(fractional, mesh),
		want: allWalked(fractional), about: "every cluster walked (non-integer weights)"})

	// Weight 2^40+1: force sums stay below 2^52, but E_s chunk totals pass
	// 2^53, where sums of odd terms round.
	huge := rated("huge", 2200, 4, float64(1<<40+1)/256)
	cases = append(cases, aggCase{name: "huge", p: huge, start: hsc(huge, mesh),
		want:  func(st buildStats, chunks int) bool { return st.aggregated > 2*st.walked && st.closedChunks < chunks },
		about: "forces in closed form, some E_s chunk at or above 2^52 walked"})

	// Weight 2^51 on runs of 5: the force bound fails for every cluster with
	// a neighbor.
	bound := rated("bound", 1700, 5, 1<<43)
	cases = append(cases, aggCase{name: "bound", p: bound, start: hsc(bound, mesh),
		want: allWalked(bound), about: "every cluster walked (force bound)"})

	// Layer b is fed by a below it and c above it with one weight: its
	// in-run is uniform and concatenated (b has no out-row) but straddles it.
	straddle := &snn.Net{Name: "straddle"}
	for _, l := range []string{"a", "b", "c"} {
		straddle.Layers = append(straddle.Layers, snn.Layer{Name: l, Neurons: 80})
	}
	straddle.Connect(0, 1, 80, snn.Dense, 0)
	straddle.Connect(2, 1, 80, snn.Dense, 0)
	sp := expand(straddle, 16)
	cases = append(cases, aggCase{name: "straddle", p: sp, start: hsc(sp, hw.MeshFor(sp.NumClusters)),
		want:  func(st buildStats, _ int) bool { return st.walked == 6 && st.aggregated == 9 },
		about: "layer b's 5 clusters and a0 walked, c's out-rows repeating a's"})

	// Cluster 0's out-row carries +Inf, one weight (no Validate on this path).
	// An expanded PCN's edges are read-only, so the weights go into a fresh
	// PCN that carries no record of Expand's repeated rows.
	net := expand(snn.SynthDNN("inf", 4, 5*16), 16)
	inf := &pcn.PCN{Name: net.Name, NumClusters: net.NumClusters, Neurons: net.Neurons, Synapses: net.Synapses,
		Layer: net.Layer, OutOff: net.OutOff, OutTo: net.OutTo, OutW: slices.Clone(net.OutW)}
	tos, ws := inf.OutEdges(0)
	for k := range tos {
		ws[k] = math.Inf(1)
	}
	cases = append(cases, aggCase{name: "infinite", p: inf, start: hsc(inf, hw.MeshFor(inf.NumClusters)),
		want: someWalked, about: "cluster 0 and the targets it mixes walked"})

	// Runs of 5 over a lowered overflow limit of 4.
	dense := cases[0]
	cases = append(cases, aggCase{name: "maxrun", p: dense.p, start: dense.start, maxRun: 4,
		want: allWalked(dense.p), about: "every cluster walked (run limit)"})
	return cases
}

// TestAggregateBuildMatchesWalk holds buildAllForces to the walk-only oracle
// (oracleBuildAllForces + energyRange per chunk) bit for bit — every force
// entry, every in-mesh mutw slot, every E_s partial and the total — on the
// fused-build matrix, DNN_268M, CNN_268M and one case per fallback
// condition, under L2Sq and L1, at workers 1 and 4. Its counts must show the
// path each case aims at: closed form where the guard holds, the walk where a
// condition fails, and no closed form at all under L1.
func TestAggregateBuildMatchesWalk(t *testing.T) {
	for _, c := range aggCases(t) {
		for _, pot := range []Potential{L2Sq{}, L1{}} {
			for _, workers := range []int{1, 4} {
				name := fmt.Sprintf("%s/%s/workers=%d", c.name, pot.Name(), workers)
				cfg := c.cfg
				cfg.Potential, cfg.Workers = pot, workers
				cfg = cfg.withDefaults()
				got := newFDEngine(c.p, c.start.Clone(), cfg)
				if c.maxRun > 0 {
					got.maxRun = c.maxRun
				}
				e, st := got.buildAllForces(workers)
				want := newFDEngine(c.p, c.start.Clone(), cfg)
				oracleBuildAllForces(want, workers)
				if wantE := oracleSystemEnergy(want, workers); math.Float64bits(e) != math.Float64bits(wantE) {
					t.Fatalf("%s: E_s = %v, walk %v", name, e, wantE)
				}
				var buf pcn.MergeBuf
				for ci := range got.partial {
					wantP := want.energyRange(ci*energyChunk, min((ci+1)*energyChunk, c.p.NumClusters), &buf)
					if math.Float64bits(got.partial[ci]) != math.Float64bits(wantP) {
						t.Fatalf("%s: E_s partial of chunk %d = %v, walk %v", name, ci, got.partial[ci], wantP)
					}
				}
				requireSameState(t, name, got, want, inMeshPairs(got))

				if st.aggregated+st.walked != c.p.NumClusters {
					t.Fatalf("%s: %d clusters aggregated + %d walked, want %d", name, st.aggregated, st.walked, c.p.NumClusters)
				}
				chunks := len(got.partial)
				switch {
				case pot.Name() != (L2Sq{}).Name():
					if st.aggregated != 0 || st.closedChunks != 0 || st.runs != 0 {
						t.Fatalf("%s: %+v, want every cluster walked", name, st)
					}
				case !c.want(st, chunks):
					t.Fatalf("%s: %+v over %d chunks, want %s", name, st, chunks, c.about)
				}
			}
		}
	}
}
