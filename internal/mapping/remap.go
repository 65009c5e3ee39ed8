package mapping

import (
	"fmt"
	"math/bits"
	"time"

	"snnmap/internal/geom"
	"snnmap/internal/hw"
	"snnmap/internal/pcn"
	"snnmap/internal/place"
)

// RemapStats reports one incremental repair run.
type RemapStats struct {
	// Moved is the number of clusters migrated off dead cores.
	Moved int
	// MovedFrac is Moved over the PCN's cluster count.
	MovedFrac float64
	// MaxMoveDist is the largest Manhattan distance any cluster traveled.
	MaxMoveDist int
	// EnergyBefore and EnergyAfter are the interconnect energy M_ec (Eq. 9)
	// of the placement before and after the repair; their difference is the
	// remap's ΔM_ec.
	EnergyBefore, EnergyAfter float64
	// Elapsed is the repair wall-clock time.
	Elapsed time.Duration
}

// DeltaEnergy returns EnergyAfter − EnergyBefore (positive = degradation).
func (s RemapStats) DeltaEnergy() float64 { return s.EnergyAfter - s.EnergyBefore }

// Remap repairs an existing placement after the defect map changed (e.g. a
// core failed in the field): every cluster sitting on a dead core migrates
// to the nearest free healthy core. Only affected clusters move (minimal
// disruption), so a single core failure migrates a single cluster. cons is
// unused; the parameter stays for source compatibility.
// pl must be a valid placement of p's clusters (else an error wrapping
// ErrBadConfig). It is mutated in place; on error it is left partially
// repaired, with every completed migration still valid.
func Remap(p *pcn.PCN, pl *place.Placement, d *hw.DefectMap, cons hw.Constraints, cost hw.CostModel) (RemapStats, error) {
	start := time.Now()
	var st RemapStats
	if err := validPlacement(p, pl, d); err != nil {
		return st, fmt.Errorf("mapping: remap: %w", err)
	}
	if d == nil {
		st.EnergyBefore = interconnectEnergy(p, pl, cost)
		st.EnergyAfter = st.EnergyBefore
		st.Elapsed = time.Since(start)
		return st, nil
	}
	var victims []int32
	for c, idx := range pl.PosOf {
		if d.IsDead(int(idx)) {
			victims = append(victims, int32(c))
		}
	}
	st.EnergyBefore = interconnectEnergy(p, pl, cost)
	st.EnergyAfter = st.EnergyBefore
	if len(victims) == 0 {
		st.Elapsed = time.Since(start)
		return st, nil
	}
	mesh := pl.Mesh
	free := newFreeCores(pl, d)
	for _, c := range victims {
		from := pl.Of(int(c))
		to, ok := free.nearest(from)
		if !ok {
			st.Elapsed = time.Since(start)
			return st, fmt.Errorf("mapping: remap: no healthy free core for cluster %d: %w", c, ErrUnplaceable)
		}
		if err := free.move(pl, int(c), int32(to)); err != nil {
			return st, err
		}
		st.Moved++
		if dist := geom.Manhattan(from, mesh.Coord(to)); dist > st.MaxMoveDist {
			st.MaxMoveDist = dist
		}
	}
	st.MovedFrac = float64(st.Moved) / float64(p.NumClusters)
	st.EnergyAfter = interconnectEnergy(p, pl, cost)
	st.Elapsed = time.Since(start)
	return st, nil
}

// validPlacement checks what Remap, RemapRows, FinetuneContext and
// ResumeFinetune index by: a placement of exactly p's clusters that is a
// bijection onto in-mesh cells, and a defect map (nil allowed) of the
// placement's own mesh. The error wraps ErrBadConfig.
func validPlacement(p *pcn.PCN, pl *place.Placement, d *hw.DefectMap) error {
	if len(pl.PosOf) != p.NumClusters {
		return fmt.Errorf("%w: placement covers %d clusters, PCN has %d", ErrBadConfig, len(pl.PosOf), p.NumClusters)
	}
	if err := pl.Validate(); err != nil {
		return fmt.Errorf("%w: %v", ErrBadConfig, err)
	}
	if d != nil && d.Mesh() != pl.Mesh {
		return fmt.Errorf("%w: defect map is for a %v mesh, placement for %v", ErrBadConfig, d.Mesh(), pl.Mesh)
	}
	return nil
}

// freeCores indexes the free, alive cores of a placement's mesh: one bitset
// per mesh row, bit y of row x set when core (x, y) holds no cluster and is
// not dead. Every placement change of a repair goes through move, which
// keeps the bits current.
type freeCores struct {
	mesh  hw.Mesh
	d     *hw.DefectMap
	words int      // uint64 words per row
	bits  []uint64 // row x is bits[x*words : (x+1)*words]
}

func newFreeCores(pl *place.Placement, d *hw.DefectMap) *freeCores {
	mesh := pl.Mesh
	f := &freeCores{mesh: mesh, d: d, words: (mesh.Cols + 63) / 64}
	f.bits = make([]uint64, mesh.Rows*f.words)
	for idx, c := range pl.ClusterAt {
		if c == place.None && !d.IsDead(idx) {
			f.set(idx, true)
		}
	}
	return f
}

// set sets (free) or clears core idx's bit.
func (f *freeCores) set(idx int, free bool) {
	x, y := idx/f.mesh.Cols, idx%f.mesh.Cols
	w := &f.bits[x*f.words+y/64]
	if free {
		*w |= 1 << (y % 64)
	} else {
		*w &^= 1 << (y % 64)
	}
}

// move is pl.Move(c, to) with the index kept current: to is taken, and the
// core c leaves becomes free unless it is dead.
func (f *freeCores) move(pl *place.Placement, c int, to int32) error {
	from := pl.PosOf[c]
	if err := pl.Move(c, to); err != nil {
		return err
	}
	f.set(int(to), false)
	f.set(int(from), !f.d.IsDead(int(from)))
	return nil
}

// next returns the first free column ≥ y of row x, or -1.
func (f *freeCores) next(x, y int) int {
	if y >= f.mesh.Cols {
		return -1
	}
	row := f.bits[x*f.words : (x+1)*f.words]
	i := y / 64
	w := row[i] >> (y % 64) << (y % 64)
	for w == 0 {
		if i++; i == len(row) {
			return -1
		}
		w = row[i]
	}
	return i*64 + bits.TrailingZeros64(w)
}

// prev returns the last free column ≤ y of row x, or -1.
func (f *freeCores) prev(x, y int) int {
	if y < 0 {
		return -1
	}
	row := f.bits[x*f.words : (x+1)*f.words]
	i := y / 64
	w := row[i] << (63 - y%64) >> (63 - y%64)
	for w == 0 {
		if i--; i < 0 {
			return -1
		}
		w = row[i]
	}
	return i*64 + 63 - bits.LeadingZeros64(w)
}

// nearest finds the free, alive core closest to `from`. Its answer is the
// first such core in ring order: Manhattan distance ascending, then signed
// row offset ascending, then the +column cell before the −column one. from
// itself is never a candidate.
//
// Rows are visited outward from from's row. In each, the nearest free
// column on either side is one bit scan, kept only within the distance
// budget the best answer so far leaves; the walk stops once the row offset
// exceeds the best distance (at equal offset a row above can still win on
// signed offset).
func (f *freeCores) nearest(from geom.Point) (int, bool) {
	rows, cols := f.mesh.Rows, f.mesh.Cols
	best, bestDist, bestDx := -1, rows+cols, 0
	maxK := max(from.X, rows-1-from.X)
	for k := 0; k <= maxK && k <= bestDist; k++ {
		for i, dx := range [2]int{-k, k} {
			if i == 1 && k == 0 {
				break // offset 0 is one row
			}
			x := from.X + dx
			if x < 0 || x >= rows {
				continue
			}
			lim := bestDist - k // no column farther than this can win
			lo := from.Y
			if k == 0 {
				lo++
			}
			y := f.next(x, lo)
			if y >= 0 && y-from.Y <= lim {
				lim = y - from.Y - 1 // left must be strictly nearer
			} else {
				y = -1
			}
			if left := f.prev(x, from.Y-1); left >= 0 && from.Y-left <= lim {
				y = left
			}
			if y < 0 {
				continue
			}
			if dist := k + geom.Abs(y-from.Y); dist < bestDist || (dist == bestDist && dx < bestDx) {
				best, bestDist, bestDx = x*cols+y, dist, dx
			}
		}
	}
	return best, best >= 0
}

// interconnectEnergy is M_ec (Eq. 9) computed directly: the per-spike energy
// of every directed connection at its current placement distance. The
// per-spike energy is read from a table of SpikeEnergy by hop count — the
// same float64 values, so the same sum bit for bit.
func interconnectEnergy(p *pcn.PCN, pl *place.Placement, cost hw.CostModel) float64 {
	pos := clusterCoords(pl)
	hop := make([]float64, pl.Mesh.Rows+pl.Mesh.Cols-1)
	for h := range hop {
		hop[h] = cost.SpikeEnergy(h)
	}
	var total float64
	for c := 0; c < p.NumClusters; c++ {
		src := pos[c]
		tos, ws := p.OutEdges(c)
		for k, to := range tos {
			dst := pos[to]
			total += ws[k] * hop[geom.Abs(int(src.x-dst.x))+geom.Abs(int(src.y-dst.y))]
		}
	}
	return total
}

// clusterCoords tabulates pl.Of(c) for every cluster, so an O(E) walk pays
// a load instead of a division per edge endpoint.
func clusterCoords(pl *place.Placement) []cellXY {
	pos := make([]cellXY, len(pl.PosOf))
	for c, idx := range pl.PosOf {
		pt := pl.Mesh.Coord(int(idx))
		pos[c] = cellXY{int32(pt.X), int32(pt.Y)}
	}
	return pos
}
