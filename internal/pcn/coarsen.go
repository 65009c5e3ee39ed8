package pcn

// Contraction of a matched graph level — the second half of the coarsening
// step. Coarse vertex indices are assigned by scanning fine vertices in
// order (the pair representative is its smaller member), so the coarse
// numbering is a pure function of the matching. Adjacency contraction is
// parallel over coarse-vertex chunks: every coarse vertex gathers its
// members' neighbor lists (first member's, then second's) into a privately
// owned range of a shared bound buffer, merges them there with mergeRow, and
// records its final degree — no two chunks touch the same bytes, so the
// coarse graph is bit-identical at any worker count.

// gLevel is one level of the multilevel hierarchy: an undirected weighted
// graph plus per-vertex occupancy, and the projection map to the next
// coarser level (nil on the coarsest).
type gLevel struct {
	u        *Undirected
	neurons  []int32
	synapses []int64
	layer    []int32
	// coarseOf[v] is the coarse vertex this level's vertex v was contracted
	// into (indexes the NEXT level's arrays). Nil on the coarsest level.
	coarseOf []int32
}

// contract builds the coarser level from a matching. The returned internal
// weight is the undirected edge weight that became internal to coarse
// vertices (used for conservation checks; self-loop weight is seen from
// both endpoints, so it is halved here). ar recycles the transient gather
// buffers across levels (nil allocates fresh); everything the coarse level
// keeps — coarseOf, the occupancy vectors and the final CSR — is allocated
// per level as before.
func contract(lv *gLevel, match []int32, workers int, ar *levelArena) (*gLevel, float64) {
	if ar == nil {
		ar = &levelArena{}
	}
	n := len(lv.neurons)
	coarseOf := make([]int32, n)
	// Pair representatives in fine order; nc is the coarse vertex count.
	nc := 0
	for v := 0; v < n; v++ {
		m := int(match[v])
		if m < v {
			continue // numbered at its representative
		}
		coarseOf[v] = int32(nc)
		if m != v {
			coarseOf[m] = int32(nc)
		}
		nc++
	}
	first := grabI32(&ar.first, nc)
	second := grabI32(&ar.second, nc)
	cN := make([]int32, nc)
	cS := make([]int64, nc)
	cL := make([]int32, nc)
	for c := range second {
		second[c] = -1
	}
	for v := 0; v < n; v++ {
		m := int(match[v])
		if m < v {
			continue
		}
		c := coarseOf[v]
		first[c] = int32(v)
		cN[c] = lv.neurons[v]
		cS[c] = lv.synapses[v]
		cL[c] = lv.layer[v]
		if m != v {
			second[c] = int32(m)
			cN[c] += lv.neurons[m]
			cS[c] += lv.synapses[m]
			if lv.layer[m] != cL[c] {
				cL[c] = -1
			}
		}
	}

	// Upper-bound offsets: the merged degree of a coarse vertex is at most
	// the sum of its members' degrees.
	bound := grabI64(&ar.bound, nc+1)
	bound[0] = 0
	for c := 0; c < nc; c++ {
		d := int64(lv.u.Degree(int(first[c])))
		if second[c] >= 0 {
			d += int64(lv.u.Degree(int(second[c])))
		}
		bound[c+1] = bound[c] + d
	}
	bufTo := grabI32(&ar.bufTo, int(bound[nc]))
	bufW := grabF64(&ar.bufW, int(bound[nc]))
	cnt := grabI32(&ar.cnt, nc)
	selfW := grabF64(&ar.selfW, nc)

	mergeRows(workers, nc, func(m *rowMerger, lo, hi int) {
		for c := lo; c < hi; c++ {
			base := bound[c]
			write := base
			var self float64
			gather := func(v int32) {
				tos, ws := lv.u.Neighbors(int(v))
				for k, t := range tos {
					tc := coarseOf[t]
					if tc == int32(c) {
						self += ws[k]
						continue
					}
					bufTo[write] = tc
					bufW[write] = ws[k]
					write++
				}
			}
			gather(first[c])
			if second[c] >= 0 {
				gather(second[c])
			}
			cnt[c] = int32(m.mergeRow(bufTo[base:write], bufW[base:write]))
			selfW[c] = self
		}
	})

	// Compact into the final CSR (sequential copy; offsets are exact now).
	off := make([]int64, nc+1)
	for c := 0; c < nc; c++ {
		off[c+1] = off[c] + int64(cnt[c])
	}
	to := make([]int32, off[nc])
	w := make([]float64, off[nc])
	var internal float64
	for c := 0; c < nc; c++ {
		copy(to[off[c]:off[c+1]], bufTo[bound[c]:bound[c]+int64(cnt[c])])
		copy(w[off[c]:off[c+1]], bufW[bound[c]:bound[c]+int64(cnt[c])])
		internal += selfW[c]
	}
	lv.coarseOf = coarseOf
	coarse := &gLevel{
		u:        &Undirected{Off: off, To: to, W: w},
		neurons:  cN,
		synapses: cS,
		layer:    cL,
	}
	return coarse, internal / 2
}
