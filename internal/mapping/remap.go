package mapping

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"time"

	"snnmap/internal/geom"
	"snnmap/internal/hw"
	"snnmap/internal/pcn"
	"snnmap/internal/place"
)

// RemapStats reports one field repair run, Remap or RemapRows.
type RemapStats struct {
	// RowsShifted is the number of failed rows retired wholesale onto a
	// free row (RemapRows only).
	RowsShifted int
	// RowMoved is the number of clusters migrated by wholesale row shifts;
	// FallbackMoved is the number migrated per-cluster to the nearest free
	// healthy core (every move of Remap). Moved is their sum.
	RowMoved, FallbackMoved, Moved int
	// MovedFrac is Moved over the PCN's cluster count.
	MovedFrac float64
	// MaxMoveDist is the largest Manhattan distance any cluster traveled
	// (for a row shift, the row distance — columns are preserved).
	MaxMoveDist int
	// EnergyBefore and EnergyAfter are the interconnect energy M_ec (Eq. 9)
	// of the placement before and after the repair; their difference is the
	// repair's ΔM_ec.
	EnergyBefore, EnergyAfter float64
	// Elapsed is the repair wall-clock time.
	Elapsed time.Duration
}

// RowRemapStats is the former name of RemapRows' stats.
//
// Deprecated: use RemapStats.
type RowRemapStats = RemapStats

// DeltaEnergy returns EnergyAfter − EnergyBefore (positive = degradation).
func (s RemapStats) DeltaEnergy() float64 { return s.EnergyAfter - s.EnergyBefore }

// Remap repairs an existing placement after the defect map changed (e.g. a
// core failed in the field): every cluster sitting on a dead core migrates,
// in cluster order, to the nearest free healthy core. Only affected
// clusters move (minimal disruption), so a single core failure migrates a
// single cluster. cons is unused; the parameter stays for source
// compatibility. pl must be a valid placement of p's clusters (else an
// error wrapping ErrBadConfig). It is mutated in place; on error it is left
// partially repaired, with every completed migration still valid and
// counted.
func Remap(p *pcn.PCN, pl *place.Placement, d *hw.DefectMap, cons hw.Constraints, cost hw.CostModel) (RemapStats, error) {
	return repair(p, pl, d, cost, false)
}

// RemapRows repairs a placement after hardware failure using wholesale
// row-shift redundancy, the way DRAM retires a failed word line onto a
// spare row, and then runs Remap's migration. Each row holding a victim (a
// cluster on a dead core) is tried, ascending, against the nearest fully
// free row whose cells under the failed row's occupied columns are alive —
// ties to the larger row index, so reserved spares (Constraints.SpareRows)
// win over coincidentally empty rows, and rows vacated by earlier shifts
// qualify. The wholesale shift (every cluster keeps its column) and Remap's
// migration of the row's victims are priced by the one ΔM_ec,
// MoveEnergyDelta: the shift before it is applied, the migration after.
// The cheaper is kept, ties preferring the shift. So RemapRows is never
// worse than Remap on the same failed row. Victims whose row has no such
// target migrate last, exactly as in Remap. cons, pl and the error contract
// are as in Remap.
func RemapRows(p *pcn.PCN, pl *place.Placement, d *hw.DefectMap, cons hw.Constraints, cost hw.CostModel) (RemapStats, error) {
	return repair(p, pl, d, cost, true)
}

// repair is Remap, and with shiftRows RemapRows: validate, measure
// EnergyBefore, run the per-row shift-or-migrate choice when asked, then
// migrate every victim still on a dead core and measure EnergyAfter once.
func repair(p *pcn.PCN, pl *place.Placement, d *hw.DefectMap, cost hw.CostModel, shiftRows bool) (st RemapStats, err error) {
	start := time.Now()
	defer func() { st.Elapsed = time.Since(start) }()
	op := "remap"
	if shiftRows {
		op = "remap rows"
	}
	if err := validPlacement(p, pl, d); err != nil {
		return st, fmt.Errorf("mapping: %s: %w", op, err)
	}
	st.EnergyBefore = InterconnectEnergy(p, pl, cost)
	st.EnergyAfter = st.EnergyBefore
	free := newFreeCores(pl, d)
	if shiftRows {
		if err := free.shiftRows(p, pl, cost, &st); err != nil {
			return st, err
		}
	}
	moves, stuck, err := free.migrate(pl, -1)
	st.migrated(pl.Mesh, moves)
	if err != nil {
		return st, err
	}
	if stuck >= 0 {
		return st, fmt.Errorf("mapping: %s: no healthy free core for cluster %d: %w", op, stuck, ErrUnplaceable)
	}
	if st.Moved > 0 {
		st.EnergyAfter = InterconnectEnergy(p, pl, cost)
	}
	st.MovedFrac = float64(st.Moved) / float64(p.NumClusters)
	return st, nil
}

// migrated counts kept per-cluster migrations.
func (st *RemapStats) migrated(mesh hw.Mesh, moves []Move) {
	for _, m := range moves {
		st.FallbackMoved++
		st.Moved++
		st.MaxMoveDist = max(st.MaxMoveDist, geom.Manhattan(mesh.Coord(int(m.From)), mesh.Coord(int(m.To))))
	}
}

// shiftRows runs RemapRows' per-row choice (see RemapRows) on each row
// holding a victim: it prices the shift unapplied, migrates the row's
// victims and prices that, then keeps the migration or undoes it, last move
// first, and applies the shift. A row with no wholesale target keeps its
// victims for the final migration. An earlier row's repair moves clusters
// onto alive cells only, so it never changes which later rows hold one.
func (f *freeCores) shiftRows(p *pcn.PCN, pl *place.Placement, cost hw.CostModel, st *RemapStats) error {
	rows, cols := f.mesh.Rows, f.mesh.Cols
	// relEps absorbs float summation noise when the two repairs reach
	// physically equivalent layouts; within it the shift wins the tie.
	relEps := 1e-12 * math.Abs(st.EnergyBefore)
	// accepts reports whether row rs is fully free and alive under every
	// occupied column of row rf.
	accepts := func(rf, rs int) bool {
		for y := 0; y < cols; y++ {
			if pl.ClusterAt[rs*cols+y] != place.None ||
				(pl.ClusterAt[rf*cols+y] != place.None && f.d.IsDead(rs*cols+y)) {
				return false
			}
		}
		return true
	}
	var shift []Move
	for rf := 0; rf < rows; rf++ {
		shift = shift[:0] // the row's clusters, each to its column of the target row
		victim := false
		for y := 0; y < cols; y++ {
			if c := pl.ClusterAt[rf*cols+y]; c != place.None {
				shift = append(shift, Move{C: int(c), From: int32(rf*cols + y)})
				victim = victim || f.d.IsDead(rf*cols+y)
			}
		}
		if !victim {
			continue
		}
		best := -1 // the nearest accepting row, the larger at equal distance
		for k := 1; best < 0 && k < rows; k++ {
			for _, rs := range [2]int{rf + k, rf - k} {
				if best < 0 && rs >= 0 && rs < rows && accepts(rf, rs) {
					best = rs
				}
			}
		}
		if best < 0 {
			continue
		}
		for i := range shift {
			shift[i].To = shift[i].From + int32((best-rf)*cols)
		}
		shiftDelta := MoveEnergyDelta(p, pl, cost, shift)
		moves, stuck, err := f.migrate(pl, rf)
		if err != nil {
			return err
		}
		if stuck < 0 && MoveEnergyDelta(p, pl, cost, moves) < shiftDelta-relEps {
			st.migrated(f.mesh, moves)
			continue
		}
		for i := len(moves) - 1; i >= 0; i-- {
			if err := f.move(pl, moves[i].C, moves[i].From); err != nil {
				return err
			}
		}
		for _, m := range shift {
			if err := f.move(pl, m.C, m.To); err != nil {
				return err
			}
		}
		st.RowsShifted++
		st.RowMoved += len(shift)
		st.Moved += len(shift)
		st.MaxMoveDist = max(st.MaxMoveDist, geom.Abs(best-rf))
	}
	return nil
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

// migrate moves every cluster on a dead core of row x (of every row when
// x < 0), in cluster order, to its nearest free alive core. It stops at the
// first cluster with no such core and returns it as stuck (else -1), with
// the moves made before it.
func (f *freeCores) migrate(pl *place.Placement, x int) (moves []Move, stuck int, err error) {
	for c, idx := range pl.PosOf {
		if !f.d.IsDead(int(idx)) || (x >= 0 && int(idx)/f.mesh.Cols != x) {
			continue
		}
		to, ok := f.nearest(f.mesh.Coord(int(idx)))
		if !ok {
			return moves, c, nil
		}
		if err := f.move(pl, c, int32(to)); err != nil {
			return moves, -1, err
		}
		moves = append(moves, Move{c, idx, int32(to)})
	}
	return moves, -1, nil
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

// InterconnectEnergy is the interconnect energy M_ec (Eq. 9) of a
// placement: every directed connection's traffic times the per-spike energy
// at its placement distance, summed in CSR order. The per-spike energy is
// read from a table of cost.SpikeEnergy by hop count — the same float64
// values, so the same sum bit for bit as a per-edge SpikeEnergy call. The
// field repairs report it, and PSO uses it as its fitness.
func InterconnectEnergy(p *pcn.PCN, pl *place.Placement, cost hw.CostModel) float64 {
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

// Move relocates cluster C from core From to core To.
type Move struct {
	C        int
	From, To int32
}

// MoveEnergyDelta is ΔM_ec (Eq. 9) of a set of moves, each cluster moving at
// most once; negative is better. It walks each moved cluster's Symmetric
// neighbours once, in move order, and adds w·(SpikeEnergy(d_new) −
// SpikeEnergy(d_old)) per edge. An edge between two moved clusters is
// counted once, at the earlier move, with both ends' cores from the moves.
// pl gives the cores of clusters that do not move only, so the moves are
// priced the same before or after they are applied. RemapRows' per-row
// choice and DFSynthesizer's swaps both decide by it.
func MoveEnergyDelta(p *pcn.PCN, pl *place.Placement, cost hw.CostModel, moves []Move) float64 {
	var small [4]int64
	s := moveSet{pl: pl, cost: cost, moves: moves, keys: append(small[:0], math.MaxInt64)}
	for i, m := range moves {
		s.keys = append(s.keys, int64(m.C)<<32|int64(i))
	}
	slices.Sort(s.keys)
	sym := p.Symmetric()
	var buf pcn.MergeBuf
	var delta float64
	for i, m := range moves {
		to1, w1, to2, w2 := sym.Neighbors(m.C, &buf)
		delta = s.walk(s.walk(delta, i, to1, w1), i, to2, w2)
	}
	return delta
}

// moveSet is MoveEnergyDelta's moves with their index: keys holds
// cluster<<32 | move index, sorted, and a sentinel past every cluster. walk
// is a method so that its loop keeps its values in registers; inlined in
// MoveEnergyDelta, it ran DFSynthesizer ≈ 5 % slower.
type moveSet struct {
	pl    *place.Placement
	cost  hw.CostModel
	moves []Move
	keys  []int64
}

// walk adds to delta, in run order, the change of each edge from move i's
// cluster to a neighbour in tos. The run ascends, so each neighbour is
// compared with the next moved cluster only, and reaching it costs a binary
// search for the next. at is Mesh.Coord by the cheaper 32-bit division.
func (s *moveSet) walk(delta float64, i int, tos []int32, ws []float64) float64 {
	cols, posOf, cost, moves, keys := uint32(s.pl.Mesh.Cols), s.pl.PosOf, s.cost, s.moves, s.keys
	at := func(idx int32) geom.Point { return geom.Point{X: int(uint32(idx) / cols), Y: int(uint32(idx) % cols)} }
	from, to := at(moves[i].From), at(moves[i].To)
	mask, next := pcn.WeightMask(tos, ws), keys[0]>>32
	for k, t := range tos {
		tFrom := at(posOf[t])
		tTo := tFrom
		if int64(t) >= next {
			n, _ := slices.BinarySearch(keys, int64(t)<<32|(1<<32-1)) // the first key past t
			if next = keys[n] >> 32; n > 0 && keys[n-1]>>32 == int64(t) {
				j := int(keys[n-1] & (1<<32 - 1))
				if j < i {
					continue // counted at move j
				}
				tFrom, tTo = at(moves[j].From), at(moves[j].To)
			}
		}
		delta += ws[k&mask] * (cost.SpikeEnergy(geom.Manhattan(to, tTo)) - cost.SpikeEnergy(geom.Manhattan(from, tFrom)))
	}
	return delta
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
