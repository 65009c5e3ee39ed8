package pcn

import "snnmap/internal/par"

// Deterministic parallel heavy-edge matching — the coarsening kernel of the
// multilevel partitioner. Each round has two data-parallel phases over fixed
// vertex chunks:
//
//  1. Proposal: every unmatched vertex selects its heaviest unmatched
//     neighbor whose merged weight fits the cap (ties broken toward the
//     smaller index). The phase only reads state frozen at the round start,
//     so the proposal vector is a pure function of the graph — identical at
//     any worker count.
//  2. Acceptance: a pair matches iff the proposals are mutual
//     (pref[pref[v]] == v). Every vertex writes only its own match slot, so
//     the phase is race-free and, again, worker-count independent.
//
// One-sided proposals are dropped and retried next round against the shrunk
// candidate set. Both phases run on par's fixed chunks of the vertex range
// (DESIGN.md "Deterministic fork-join"), making coarse graphs bit-identical.

// heavyEdgeMatch computes a matching of the undirected graph: match[v] is
// v's partner, or v itself when the vertex stays a singleton. A pair is only
// eligible when the merged neuron weight fits mergeCap (and the merged
// synapse weight fits synCap when synCap > 0); layer tags play no part.
// rounds bounds the proposal/acceptance sweeps. ar recycles the
// match/pref/counts scratch across coarsening levels (nil allocates fresh);
// the returned matching aliases the arena and is valid until the next grab.
func heavyEdgeMatch(u *Undirected, neurons []int32, synapses []int64, mergeCap int, synCap int64, rounds, workers int, ar *levelArena) []int32 {
	if ar == nil {
		ar = &levelArena{}
	}
	n := len(neurons)
	match := grabI32(&ar.match, n)
	pref := grabI32(&ar.pref, n)
	for v := range match {
		match[v] = -1
	}
	chunks := par.Chunks(n)
	chunk := (n + chunks - 1) / chunks
	counts := grabI64(&ar.counts, chunks)
	for r := 0; r < rounds; r++ {
		par.Do(workers, chunks, func(ci int) {
			hi := min((ci+1)*chunk, n)
			for v := ci * chunk; v < hi; v++ {
				pref[v] = -1
				if match[v] >= 0 {
					continue
				}
				tos, ws := u.Neighbors(v)
				best := int32(-1)
				bestW := 0.0
				for k, t := range tos {
					if match[t] >= 0 || int(t) == v {
						continue
					}
					if int(neurons[v])+int(neurons[t]) > mergeCap {
						continue
					}
					if synCap > 0 && synapses[v]+synapses[t] > synCap {
						continue
					}
					if ws[k] > bestW || (ws[k] == bestW && (best < 0 || t < best)) {
						best = t
						bestW = ws[k]
					}
				}
				pref[v] = best
			}
		})
		par.Do(workers, chunks, func(ci int) {
			counts[ci] = 0
			hi := min((ci+1)*chunk, n)
			for v := ci * chunk; v < hi; v++ {
				p := pref[v]
				if p >= 0 && pref[p] == int32(v) {
					match[v] = p
					counts[ci]++
				}
			}
		})
		var matched int64
		for _, c := range counts {
			matched += c
		}
		if matched == 0 {
			break
		}
	}
	for v := range match {
		if match[v] < 0 {
			match[v] = int32(v)
		}
	}
	return match
}
