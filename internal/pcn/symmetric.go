package pcn

// Symmetric is the undirected view of a PCN without a materialized copy: the
// PCN's own out-CSR plus its transpose, the in-edge CSR by target cluster.
// Walking a cluster's in-sources and out-targets merged by id — summing the
// two weights of a mutual pair — yields exactly the entries of
// Undirected.Neighbors, ids and weight bits alike: both sides are strictly
// increasing (the out-CSR is merged, so a neighbor appears at most once per
// side) and a+b is commutative in IEEE-754. It costs E×12 B where
// Undirected costs 2E×12 B plus a scatter, a per-node sort and a compaction.
type Symmetric struct {
	// out is the PCN's own out-CSR (aliased, not copied); in holds the
	// in-edges by target cluster. Within one cluster's range in-sources are
	// strictly increasing: the counting pass below visits sources in
	// ascending order, so the buckets never need sorting.
	out, in csr
}

// csr is one direction of the adjacency: cluster i's neighbor ids (strictly
// increasing) and weights occupy [off[i], off[i+1]).
type csr struct {
	off []int64
	ids []int32
	w   []float64
}

// edges returns cluster i's ids and weights. The slices alias the storage.
func (c csr) edges(i int) ([]int32, []float64) {
	lo, hi := c.off[i], c.off[i+1]
	return c.ids[lo:hi], c.w[lo:hi]
}

// Symmetric returns (building the transpose on first use) the undirected
// view. It is safe to call from concurrent goroutines sharing the PCN.
func (p *PCN) Symmetric() *Symmetric {
	a := p.lazyAdjacency()
	a.symOnce.Do(func() { a.sym = p.buildSymmetric() })
	return a.sym
}

func (p *PCN) buildSymmetric() *Symmetric {
	n := p.NumClusters
	off := make([]int64, n+1)
	for _, to := range p.OutTo {
		off[to+1]++
	}
	for i := 0; i < n; i++ {
		off[i+1] += off[i]
	}
	from := make([]int32, off[n])
	w := make([]float64, off[n])
	next := make([]int64, n)
	copy(next, off[:n])
	for i := 0; i < n; i++ {
		tos, ws := p.OutEdges(i)
		for k, t := range tos {
			pos := next[t]
			next[t]++
			from[pos] = int32(i)
			w[pos] = ws[k]
		}
	}
	return &Symmetric{out: csr{p.OutOff, p.OutTo, p.OutW}, in: csr{off, from, w}}
}

// MergeBuf is caller-owned scratch for Symmetric.Neighbors; one per
// goroutine, reused across calls.
type MergeBuf struct {
	to []int32
	w  []float64
}

// Neighbors returns cluster c's undirected neighborhood as two runs to be
// walked one after the other: together they hold every neighbor once, in
// ascending id order, with the combined weight of both directions. When all
// in-sources precede all out-targets (every cluster of a feed-forward net)
// or the reverse, the merge is a concatenation and the runs alias the CSR
// storage; otherwise the merged list is written to buf and returned as the
// first run. The slices are read-only and valid until buf's next use.
func (s *Symmetric) Neighbors(c int, buf *MergeBuf) (to1 []int32, w1 []float64, to2 []int32, w2 []float64) {
	in, inW := s.in.edges(c)
	out, outW := s.out.edges(c)
	switch {
	case len(in) == 0 || len(out) == 0 || in[len(in)-1] < out[0]:
		return in, inW, out, outW
	case out[len(out)-1] < in[0]:
		return out, outW, in, inW
	}
	to, w := buf.to[:0], buf.w[:0]
	i, j := 0, 0
	for i < len(in) && j < len(out) {
		switch {
		case in[i] < out[j]:
			to, w = append(to, in[i]), append(w, inW[i])
			i++
		case in[i] > out[j]:
			to, w = append(to, out[j]), append(w, outW[j])
			j++
		default:
			to, w = append(to, in[i]), append(w, outW[j]+inW[i])
			i++
			j++
		}
	}
	to, w = append(to, in[i:]...), append(w, inW[i:]...)
	to, w = append(to, out[j:]...), append(w, outW[j:]...)
	buf.to, buf.w = to, w
	return to, w, nil, nil
}
