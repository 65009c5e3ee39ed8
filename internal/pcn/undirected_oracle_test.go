package pcn

import "sync"

// The materialized undirected copy of a PCN, the oracle Symmetric.Neighbors
// is held to (TestSymmetricEqualsUndirected: same ids, order and weight
// bits). Production code walks Symmetric and never builds this copy.

// Undirected is a materialized symmetrized cluster graph: for every
// unordered cluster pair {i, j} the weight is w_P(e_ij) + w_P(e_ji).
type Undirected struct {
	Off []int64
	To  []int32
	W   []float64
}

// Neighbors returns cluster i's undirected neighbors and combined weights.
func (u *Undirected) Neighbors(i int) ([]int32, []float64) {
	lo, hi := u.Off[i], u.Off[i+1]
	return u.To[lo:hi], u.W[lo:hi]
}

// Degree returns the number of distinct neighbors of cluster i.
func (u *Undirected) Degree(i int) int { return int(u.Off[i+1] - u.Off[i]) }

// undirView memoizes one PCN's Undirected, keyed by its adjacency holder so
// that copies of a PCN share it as they share Symmetric.
type undirView struct {
	once sync.Once
	u    *Undirected
}

var undirViews sync.Map // *adjacency → *undirView

// Undirected returns (building on first use) the symmetrized adjacency. It
// is safe to call from concurrent goroutines sharing the PCN.
func (p *PCN) Undirected() *Undirected {
	v, _ := undirViews.LoadOrStore(p.lazyAdjacency(), new(undirView))
	view := v.(*undirView)
	view.once.Do(func() { view.u = p.buildUndirected() })
	return view.u
}

func (p *PCN) buildUndirected() *Undirected {
	n := p.NumClusters
	deg := make([]int64, n+1)
	for i := 0; i < n; i++ {
		tos, _ := p.OutEdges(i)
		deg[i+1] += int64(len(tos))
		for _, to := range tos {
			deg[to+1]++
		}
	}
	for i := 0; i < n; i++ {
		deg[i+1] += deg[i]
	}
	to := make([]int32, deg[n])
	w := make([]float64, deg[n])
	next := make([]int64, n)
	copy(next, deg[:n])
	for i := 0; i < n; i++ {
		tos, ws := p.OutEdges(i)
		for k, t := range tos {
			pos := next[i]
			next[i]++
			to[pos] = t
			w[pos] = ws[k]
			pos = next[t]
			next[t]++
			to[pos] = int32(i)
			w[pos] = ws[k]
		}
	}
	// Merge parallel entries (an i->j and j->i pair become one undirected
	// entry with summed weight).
	off, to, w := finalizeCSR(deg, to, w, 1)
	return &Undirected{Off: off, To: to, W: w}
}
