package mapping

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"time"

	"snnmap/internal/geom"
	"snnmap/internal/hw"
	"snnmap/internal/obs"
	"snnmap/internal/par"
	"snnmap/internal/pcn"
	"snnmap/internal/place"
)

// FDConfig tunes Algorithm 3.
type FDConfig struct {
	// Potential is the field shape u(p); nil means L2Sq (the paper's
	// best-performing method j).
	Potential Potential
	// Lambda is the fraction of the tension queue swapped per iteration
	// (§4.5 design choice 2). Zero means the paper's practical value 0.3.
	Lambda float64
	// MaxIterations caps the outer loop (0 = until the queue drains).
	MaxIterations int
	// Budget caps wall-clock time (0 = unlimited). When exceeded the
	// current placement is returned with Converged=false, mirroring the
	// paper's early-stop protocol for slow methods.
	Budget time.Duration
	// Defects marks dead cores on the mesh. Swaps that would move a
	// cluster onto a dead core are blocked. Nil means a pristine mesh.
	Defects *hw.DefectMap
	// Constraints reserves hot-spare rows: only SpareRows is read, and
	// swaps reaching into a reserved row are blocked. Per-core capacity
	// is the partitioner's, so its fields are ignored here.
	Constraints hw.Constraints
	// Workers parallelises the O(|E|) build phases (initial forces, the
	// initial tension queue, and energy accounting); the swap sweep is
	// Algorithm 3's sequential loop at any value. Results are bit-identical
	// regardless: force cells are disjoint, the queue's total order fixes
	// the consumed prefix, and energy partial sums use a fixed chunk layout
	// reduced in chunk order. 0 or 1 means sequential (the paper's
	// single-threaded C++ setting).
	Workers int
	// Checkpoint, when non-nil, snapshots the fine-tuning state so an
	// interrupted run can continue with ResumeFinetune instead of
	// restarting. Snapshots are taken at iteration boundaries only, where
	// the engine state is exactly a loop-head state — the invariant that
	// makes resumption bit-identical to the uninterrupted run.
	Checkpoint *CheckpointConfig
	// Obs receives per-sweep spans, counters (swaps, tension checks, queue
	// sizes), and throttled progress; nil disables telemetry. Observe-only:
	// hot-loop bookkeeping stays in plain local counters published at sweep
	// boundaries, so attaching an observer never changes the placement or
	// FDStats produced. Not part of snapshots.
	Obs *obs.Observer

	// fullSort replaces the top-⌈λ·|Q|⌉ partial queue selection with the
	// original full queue sort per iteration: the oracle the equivalence
	// tests compare against (bit-identical output, see finalizeQueue). Only
	// this package's tests set it.
	fullSort bool
}

// CheckpointConfig configures FDConfig.Checkpoint hooks.
type CheckpointConfig struct {
	// Interval takes a snapshot at the head of every Interval-th completed
	// iteration. Zero snapshots only on cancellation (every canceled run
	// with a non-nil Fn still receives one final snapshot, so the caller
	// always holds a resumable state).
	Interval int
	// Fn receives each snapshot. The snapshot is a deep copy — it stays
	// valid after Finetune returns and across further iterations. A non-nil
	// error aborts the run and is returned to the caller.
	Fn func(*Snapshot) error
}

func (c FDConfig) withDefaults() FDConfig {
	if c.Potential == nil {
		c.Potential = L2Sq{}
	}
	if c.Lambda == 0 {
		c.Lambda = 0.3
	}
	return c
}

// Validate checks the configuration, returning an error wrapping
// ErrBadConfig on the first problem. Finetune and FinetuneContext call it
// after resolving defaults, so the zero values (nil Potential, Lambda 0)
// never reach it from those paths; validating a raw FDConfig directly
// reports them as invalid.
func (c FDConfig) Validate() error {
	if c.Potential == nil {
		return fmt.Errorf("%w: nil potential", ErrBadConfig)
	}
	if math.IsNaN(c.Lambda) || c.Lambda <= 0 || c.Lambda > 1 {
		return fmt.Errorf("%w: lambda %g outside (0, 1]", ErrBadConfig, c.Lambda)
	}
	if c.MaxIterations < 0 {
		return fmt.Errorf("%w: negative MaxIterations %d", ErrBadConfig, c.MaxIterations)
	}
	if c.Budget < 0 {
		return fmt.Errorf("%w: negative Budget %v", ErrBadConfig, c.Budget)
	}
	if c.Workers < 0 {
		return fmt.Errorf("%w: negative Workers %d", ErrBadConfig, c.Workers)
	}
	if c.Constraints.SpareRows < 0 {
		return fmt.Errorf("%w: negative SpareRows %d", ErrBadConfig, c.Constraints.SpareRows)
	}
	if c.Checkpoint != nil {
		if c.Checkpoint.Interval < 0 {
			return fmt.Errorf("%w: negative checkpoint interval %d", ErrBadConfig, c.Checkpoint.Interval)
		}
		if c.Checkpoint.Fn == nil {
			return fmt.Errorf("%w: checkpoint config without a Fn callback", ErrBadConfig)
		}
	}
	return nil
}

// minGainFor is the smallest tension treated as positive: max(1e-9,
// 1e-12·E_s(initial)). It guards the monotone-descent argument (Eq. 31)
// against float round-off in the incrementally maintained force arrays, and
// scales with the energy so drift never masquerades as real tension (the
// flat u_a potential produces exactly-zero tensions that drift would
// otherwise keep re-queueing forever).
func minGainFor(initialEnergy float64) float64 {
	eps := 1e-12 * math.Abs(initialEnergy)
	if eps < 1e-9 {
		eps = 1e-9
	}
	return eps
}

// FDStats reports what one Finetune run did.
type FDStats struct {
	// Iterations is the number of outer queue iterations executed.
	Iterations int
	// Swaps is the number of executed position swaps.
	Swaps int64
	// TensionChecks counts tension evaluations (for complexity analysis).
	TensionChecks int64
	// InitialEnergy and FinalEnergy are the system total potential energy
	// E_s (Eq. 23) before and after optimization.
	InitialEnergy, FinalEnergy float64
	// Converged reports whether the queue drained (as opposed to hitting
	// MaxIterations or Budget).
	Converged bool
	// Elapsed is the wall-clock optimization time.
	Elapsed time.Duration
}

// Finetune runs the Force-Directed algorithm (Algorithm 3) on the placement
// in place, mutating pl, and returns run statistics. The placement must be
// valid for the PCN.
func Finetune(p *pcn.PCN, pl *place.Placement, cfg FDConfig) (FDStats, error) {
	return FinetuneContext(context.Background(), p, pl, cfg)
}

// FinetuneContext is Finetune with cooperative cancellation: the sweep loop
// checks ctx between iterations and every few thousand pair evaluations, and
// returns an error wrapping ErrCanceled (with the statistics accumulated so
// far) when the context is done.
func FinetuneContext(ctx context.Context, p *pcn.PCN, pl *place.Placement, cfg FDConfig) (FDStats, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return FDStats{}, fmt.Errorf("mapping: finetune: %w", err)
	}
	if err := ctx.Err(); err != nil {
		return FDStats{}, fmt.Errorf("mapping: finetune: %v: %w", err, ErrCanceled)
	}
	if err := validPlacement(p, pl, cfg.Defects); err != nil {
		return FDStats{}, fmt.Errorf("mapping: finetune: %w", err)
	}
	start := time.Now()
	e := newFDEngine(p, pl, cfg)
	// Build Force[p][0..3] for every occupied position (Alg. 3 lines 3-5);
	// the same walk yields E_s.
	sp := cfg.Obs.Span("fd.build")
	energy, built := e.buildAllForces(cfg.Workers)
	sp.End(obs.KV{K: "aggregated", V: float64(built.aggregated)},
		obs.KV{K: "walked", V: float64(built.walked)},
		obs.KV{K: "runs", V: float64(built.runs)},
		obs.KV{K: "closed_chunks", V: float64(built.closedChunks)})
	stats := FDStats{InitialEnergy: energy}
	minGain := minGainFor(stats.InitialEnergy)
	// Build the initial tension queue (lines 6-13).
	queue := e.initialQueue(cfg.Workers)

	return e.run(ctx, cfg, queue, stats, minGain, start, 0)
}

// run drives the iteration loop from a loop-head state: either the freshly
// built one (FinetuneContext) or one restored from a Snapshot
// (ResumeFinetune). prior is wall-clock time already accumulated by earlier
// runs of the same job; it is folded into Elapsed so a resumed job reports
// cumulative statistics. Snapshots — both the interval-driven ones and the
// final cancellation snapshot — are only ever taken here at the loop head,
// where (placement, force array, ordered queue, stats, minGain) fully
// determine the rest of the run; that is the resume bit-identity invariant
// (see DESIGN.md).
func (e *fdEngine) run(ctx context.Context, cfg FDConfig, queue []pairTension, stats FDStats, minGain float64, start time.Time, prior time.Duration) (FDStats, error) {
	deadline := time.Time{}
	if cfg.Budget > 0 {
		deadline = start.Add(cfg.Budget)
	}
	ckpt := cfg.Checkpoint
	// A run resumed from the snapshot of iteration k must not immediately
	// re-emit snapshot k.
	lastSnap := stats.Iterations

	for len(queue) > 0 {
		if cfg.MaxIterations > 0 && stats.Iterations >= cfg.MaxIterations {
			break
		}
		if !deadline.IsZero() && time.Now().After(deadline) {
			break
		}
		if err := ctx.Err(); err != nil {
			stats.FinalEnergy = e.systemEnergy(cfg.Workers)
			stats.Elapsed = prior + time.Since(start)
			cerr := fmt.Errorf("mapping: finetune: %v: %w", err, ErrCanceled)
			if ckpt != nil && ckpt.Fn != nil {
				if serr := ckpt.Fn(e.snapshot(queue, stats, minGain)); serr != nil {
					return stats, errors.Join(cerr, fmt.Errorf("mapping: finetune: cancellation snapshot: %w", serr))
				}
			}
			return stats, cerr
		}
		if ckpt != nil && ckpt.Fn != nil && ckpt.Interval > 0 &&
			stats.Iterations > lastSnap && stats.Iterations%ckpt.Interval == 0 {
			lastSnap = stats.Iterations
			snapStats := stats
			snapStats.FinalEnergy = e.systemEnergy(cfg.Workers)
			snapStats.Elapsed = prior + time.Since(start)
			if err := ckpt.Fn(e.snapshot(queue, snapStats, minGain)); err != nil {
				return snapStats, fmt.Errorf("mapping: finetune: checkpoint at iteration %d: %w", stats.Iterations, err)
			}
		}
		stats.Iterations++

		// Telemetry wraps the sweep with a span and publishes the hot-loop
		// counters as before/after deltas; everything here is observe-only.
		var sweepSp obs.Span
		var swaps0, checks0 int64
		if cfg.Obs.Enabled() {
			sweepSp = cfg.Obs.Span("fd.sweep",
				obs.KV{K: "iter", V: float64(stats.Iterations)},
				obs.KV{K: "queue", V: float64(len(queue))})
			swaps0, checks0 = stats.Swaps, stats.TensionChecks
		}

		// Swap the top λ fraction of the queue (lines 17-29).
		e.beginEpoch()
		e.applyBatch(ctx, queue[:swapLimit(cfg.Lambda, len(queue))], minGain, &stats)

		// Rebuild the queue for the next iteration (lines 30-40): keep all
		// current pairs, add every pair touching an affected cluster,
		// recompute tensions and drop non-positive entries.
		queue = e.nextQueue(queue, minGain, &stats.TensionChecks)

		if cfg.Obs.Enabled() {
			sweepSp.End(
				obs.KV{K: "swaps", V: float64(stats.Swaps - swaps0)},
				obs.KV{K: "checks", V: float64(stats.TensionChecks - checks0)},
				obs.KV{K: "affected", V: float64(len(e.affected))},
				obs.KV{K: "next_queue", V: float64(len(queue))})
			cfg.Obs.Progress("fd", int64(stats.Iterations), int64(cfg.MaxIterations))
		}
	}

	stats.Converged = len(queue) == 0
	stats.FinalEnergy = e.systemEnergy(cfg.Workers)
	stats.Elapsed = prior + time.Since(start)
	return stats, nil
}

// pairTension is one queue entry: an adjacent-cell pair and its tension at
// queue-build time.
type pairTension struct {
	id      int32
	tension float64
}

// fdEngine holds the mutable state of one Finetune run.
//
// Pair identifiers: the pair of cell idx with its right neighbor has id
// idx*2, with its bottom neighbor idx*2+1. Only in-mesh pairs are ever
// enqueued.
type fdEngine struct {
	p *pcn.PCN
	// sym is the undirected adjacency every kernel walks; buf is its merge
	// scratch for the sweep (the build phases get one per goroutine from
	// par.DoScratch).
	sym  *pcn.Symmetric
	buf  pcn.MergeBuf
	pl   *place.Placement
	mesh hw.Mesh
	// at[c] is the mesh coordinate of cluster c's cell, kept in step with the
	// placement by swapPair, so the O(E) kernels reach a neighbor's
	// coordinate in one load instead of a division or a PosOf lookup first.
	at []cellXY
	// pot is the potential; field is its closed form when it has one, so
	// the hot loops make no interface call per entry (see potential.go).
	pot   Potential
	field fieldKind
	// defects implements fault-aware swapping: pairs touching a dead cell
	// report zero tension and are therefore never enqueued or executed.
	defects *hw.DefectMap
	// unitCorr is 2·(u(1)−u(0)), the tension correction for mutually
	// connected adjacent clusters (see DESIGN.md: tension is the exact
	// swap ΔE_s, so the mutual edge — whose length a swap cannot change —
	// must not be counted).
	unitCorr float64
	// lambda is the queue fraction consumed per iteration; the rebuilt
	// queue only needs its top ⌈λ·|Q|⌉ prefix ordered (selectTop).
	lambda float64
	// fullSort switches finalizeQueue back to the full per-iteration sort
	// (the equivalence-test oracle).
	fullSort bool
	// spareStart is the first mesh row reserved as a hot spare
	// (Constraints.SpareRows); pairs reaching into a reserved row report
	// zero tension so fine-tuning never occupies the spares. Equal to
	// mesh.Rows when there is no reservation.
	spareStart int32
	// canBlock is whether blocked can ever report true (a defect map or a
	// spare-row reservation exists), resolved once so tension skips the call
	// on a pristine mesh.
	canBlock bool

	// maxRun is the longest id run whose int64 cell aggregates cannot
	// overflow, n·max(rows, cols)² < 2^60, and forceSpan is 2·max(rows,
	// cols)+1, which bounds |±2d−1| over the mesh (see blocks).
	maxRun, forceSpan int64

	// force[idx*4+d] is Force[p][d] of Alg. 3 for the cluster at cell idx
	// (0 for empty cells and off-mesh directions).
	force []float64

	// mutw[id] caches the mutual undirected weight between the occupants of
	// pair id's two cells (0 when either is empty or they are unconnected),
	// so tension() never binary-searches the adjacency. The walks that sum a
	// cell's force fill it: each meets every connected occupant of an
	// adjacent cell with exactly that weight in hand (forceRun at build
	// time, moveRun after a swap re-zeroed the ≤ 7 slots it invalidates).
	mutw []float64

	// partial[ci] is E_s restricted to energyChunk's cluster range ci, as of
	// the last build or systemEnergy; dirty[ci] is set once a cluster of the
	// range was affected since. A partial reads only the positions of its
	// own clusters and of their neighbors, and a move marks the moved cluster
	// and every neighbor affected, so a clean partial is the bits a
	// recompute would produce.
	partial []float64
	dirty   []bool

	// pending is nextQueue's candidate set, one bit per pair id and empty
	// between calls. clusterMark holds one bit per member of affected, the
	// clusters affected in the current iteration.
	pending     bitset
	clusterMark bitset
	affected    []int32
}

// bitset is a set of non-negative int32, one bit each.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

// add inserts i and reports whether it was absent. It stores
// unconditionally: a branch on the loaded word mispredicts on the mix of
// new and repeated members that nextQueue and markAffected insert.
func (s bitset) add(i int32) bool {
	w, m := &s[i>>6], uint64(1)<<(i&63)
	old := *w
	*w = old | m
	return old&m == 0
}

// cellXY is a mesh coordinate (row x, column y) in the engine's tables.
type cellXY struct{ x, y int32 }

func newFDEngine(p *pcn.PCN, pl *place.Placement, cfg FDConfig) *fdEngine {
	mesh := pl.Mesh
	cols, rows := int32(mesh.Cols), int32(mesh.Rows)
	spareStart := int32(cfg.Constraints.UsableRows(mesh))
	side := int64(max(rows, cols))
	unit, zero := unitZero(cfg.Potential)
	return &fdEngine{
		maxRun:      (1 << 60) / (side * side),
		forceSpan:   2*side + 1,
		p:           p,
		sym:         p.Symmetric(),
		pl:          pl,
		mesh:        mesh,
		at:          clusterCoords(pl),
		pot:         cfg.Potential,
		field:       closedForm(cfg.Potential),
		defects:     cfg.Defects,
		unitCorr:    2 * (unit - zero),
		lambda:      cfg.Lambda,
		fullSort:    cfg.fullSort,
		spareStart:  spareStart,
		canBlock:    cfg.Defects != nil || spareStart < rows,
		force:       make([]float64, 4*mesh.Cores()),
		mutw:        make([]float64, 2*mesh.Cores()),
		partial:     make([]float64, (p.NumClusters+energyChunk-1)/energyChunk),
		dirty:       make([]bool, (p.NumClusters+energyChunk-1)/energyChunk),
		pending:     newBitset(2 * mesh.Cores()),
		clusterMark: newBitset(p.NumClusters),
	}
}

// cell returns the mesh coordinate of cell idx.
func (e *fdEngine) cell(idx int32) cellXY {
	cols := int32(e.mesh.Cols)
	return cellXY{idx / cols, idx % cols}
}

// potential returns u((x, y)).
func (e *fdEngine) potential(x, y int) float64 {
	if e.field == fieldEval {
		return e.pot.Eval(geom.Point{X: x, Y: y})
	}
	return float64(e.field.at(x, y))
}

// steps returns u(p) − u(p−δ) at p = (x, y) for δ = up, down, right, left:
// the per-unit-weight force components of Eq. 27.
func (e *fdEngine) steps(x, y int) (up, down, right, left float64) {
	if e.field == fieldEval {
		u0 := e.pot.Eval(geom.Point{X: x, Y: y})
		return u0 - e.pot.Eval(geom.Point{X: x + 1, Y: y}),
			u0 - e.pot.Eval(geom.Point{X: x - 1, Y: y}),
			u0 - e.pot.Eval(geom.Point{X: x, Y: y - 1}),
			u0 - e.pot.Eval(geom.Point{X: x, Y: y + 1})
	}
	u, d, r, l := e.field.steps(x, y)
	return float64(u), float64(d), float64(r), float64(l)
}

// energyRange returns E_s (Eq. 23) restricted to the clusters [lo, hi): the
// sum over connections of u(P(c_j)−P(c_i))·w. Neighbor weights already
// combine both directions.
func (e *fdEngine) energyRange(lo, hi int, buf *pcn.MergeBuf) float64 {
	var total float64
	for c := lo; c < hi; c++ {
		pc := e.at[c]
		to1, w1, to2, w2 := e.sym.Neighbors(c, buf)
		total = e.energyRun(total, int32(c), pc, to1, w1)
		total = e.energyRun(total, int32(c), pc, to2, w2)
	}
	return total
}

// energyRun adds one neighbor run of cluster c (at cell pc) to total,
// counting each unordered pair once, from its smaller cluster.
func (e *fdEngine) energyRun(total float64, c int32, pc cellXY, tos []int32, ws []float64) float64 {
	if len(tos) == 0 || tos[len(tos)-1] < c {
		return total // ids ascend: the whole run is counted from the other side
	}
	mask := pcn.WeightMask(tos, ws)
	l2sq := e.field == fieldL2Sq
	for k, to := range tos {
		if to < c {
			continue
		}
		q := e.at[to]
		x, y := int(q.x-pc.x), int(q.y-pc.y)
		var u float64
		if l2sq {
			u = float64(x*x + y*y)
		} else {
			u = e.potential(x, y)
		}
		total += ws[k&mask] * u
	}
	return total
}

// energyChunk is the fixed cluster-range size of one E_s partial sum: a
// layout that depends on the cluster count alone, so the in-order reduction
// yields the same float at any worker count even when contributions are not
// exactly representable (the Eq. 25 energy potential).
const energyChunk = 4096

// systemEnergy computes E_s (Eq. 23) as the per-chunk partial sums reduced
// in chunk order, recomputing only the dirty ones.
func (e *fdEngine) systemEnergy(workers int) float64 {
	par.DoScratch(workers, len(e.partial), func(ci int, buf *pcn.MergeBuf) {
		if e.dirty[ci] {
			hi := min((ci+1)*energyChunk, e.p.NumClusters)
			e.partial[ci], e.dirty[ci] = e.energyRange(ci*energyChunk, hi, buf), false
		}
	})
	var total float64
	for _, p := range e.partial {
		total += p
	}
	return total
}

// buildAllForces fills the force array and the mutw slots of every occupied
// cell (Eq. 27: each direction summed over the neighbors in ascending id
// order) and every energy partial, and returns E_s with counts of how each
// cluster and chunk was built. Each cluster's neighborhood is fetched once.
// Under L2Sq a cluster that passes blocks' exactness guard, and whose runs
// repeat its predecessor's, is summed in closed form from run aggregates;
// any other is walked while cache-resident — energyRun in energyRange's
// order, and forceRun. Both give the same bits (see blocks). Cells and
// chunks are disjoint and the placement is immutable during the build.
func (e *fdEngine) buildAllForces(workers int) (float64, buildStats) {
	stats := make([]buildStats, len(e.partial))
	par.DoScratch(workers, len(e.partial), func(ci int, buf *pcn.MergeBuf) {
		lo, hi := ci*energyChunk, min((ci+1)*energyChunk, e.p.NumClusters)
		st := &stats[ci]
		var cache blockCache
		var total float64
		// exact holds while every cluster so far passed blocks' guard, so
		// every term in total is an integer; summed records that some entered
		// in closed form, so total is no longer the walk's own sum.
		exact, summed := e.field == fieldL2Sq, false
		for c := lo; c < hi; c++ {
			idx, pc := e.pl.PosOf[c], e.at[c]
			b, ok, closed := e.blocks(c, &cache, &st.runs)
			if !ok && exact {
				exact = false
				if summed {
					total = e.energyRange(lo, c, buf)
				}
			}
			if closed {
				st.aggregated++
				for i := range b {
					r := &b[i]
					if exact {
						total += r.energy(int32(c), pc)
						summed = true
					} else {
						total = e.energyRun(total, int32(c), pc, r.ids, r.ws)
					}
				}
				e.blockForce(idx, pc, b)
				continue
			}
			st.walked++
			if b == nil {
				b = cache.b[:]
				b[0].ids, b[0].ws, b[1].ids, b[1].ws = e.sym.Neighbors(c, buf)
			}
			var up, down, right, left float64
			for i := range b {
				r := &b[i]
				total = e.energyRun(total, int32(c), pc, r.ids, r.ws)
				up, down, right, left = e.forceRun(idx, pc, r.ids, r.ws, up, down, right, left)
			}
			e.storeForce(idx, pc, up, down, right, left)
		}
		// Every term is a non-negative integer below 2^53 or the total reaches
		// 2^53, so a total below exactLimit was summed without rounding, and
		// so were the walk's own partial sums, which never exceed it: both are
		// the same integer.
		if summed && exact && !(total < exactLimit) {
			summed, total = false, e.energyRange(lo, hi, buf)
		}
		if summed && exact {
			st.closedChunks++
		}
		e.partial[ci], e.dirty[ci] = total, false
	})
	var sum buildStats
	for _, st := range stats {
		sum.aggregated += st.aggregated
		sum.walked += st.walked
		sum.runs += st.runs
		sum.closedChunks += st.closedChunks
	}
	return e.systemEnergy(workers), sum // nothing is dirty: the in-order reduction alone
}

// buildStats counts how buildAllForces built: clusters summed from
// aggregates and clusters walked, distinct runs aggregated, and E_s chunks
// summed in closed form.
type buildStats struct {
	aggregated, walked, runs, closedChunks int
}

// exactLimit bounds every sum the closed-form build relies on: integers of
// magnitude below 2^52 add and multiply without rounding while the result
// stays below 2^53.
const exactLimit = 1 << 52

// block is one neighbor run of a cluster taken whole: its ids and weights as
// Symmetric.Neighbors returns them, its side (0 in-run, 1 out-row), the one
// weight w every id carries, and the aggregate of the ids' cells.
type block struct {
	ids  []int32
	ws   []float64
	side int
	w    float64
	agg  runAgg
}

// runAgg is the aggregate of an id run's cells under the current placement:
// the member count and the sums of the rows x, the columns y and their
// squares.
type runAgg struct{ n, sx, sy, sxx, syy int64 }

// blockCache holds, per side, the run a build chunk last met and, once it
// has been needed, its aggregate. A cluster is summed in closed form only
// when its runs repeat the previous ones: consecutive clusters of a dense
// layer read one shared in-run and one shared out-row (the same slices, which
// sameRun's pointer test matches), so each distinct run is aggregated about
// once, while a cluster with a run no predecessor shares (a sliding window) is
// walked, since aggregating that run would cost the walk again. b is the
// storage of the runs blocks and the walk hand around.
type blockCache struct {
	ids   [2][]int32
	agg   [2]runAgg
	ready [2]bool
	b     [2]block
}

// blocks returns cluster c's nonempty neighbor runs in Symmetric.Neighbors'
// order when Neighbors would concatenate them (nil when it would merge them
// or the potential is not L2Sq), whether the closed form reproduces the
// walk's bits for c, and whether it is taken: the runs repeat the previous
// cluster's and carry their aggregates. The closed form is exact when the
// potential is L2Sq and
//   - Neighbors concatenates c's in-run and out-row rather than merging them;
//   - every id of a run carries one weight w, finite with w == Trunc(w);
//   - no run straddles c, so energyRun counts a run whole or not at all;
//   - Σ_runs w·n·(2·max(rows, cols)+1) < 2^52, which bounds every partial
//     sum of the force walk, each of whose terms is an integer w·(±2d−1);
//   - n ≤ maxRun, so the int64 aggregates and the energy's integer distance
//     sum cannot overflow.
//
// All operands then are integers, every partial sum of the walk is exact,
// and any association of the same terms gives the same bits. runs counts the
// aggregates computed. The blocks live in cache until its next use.
func (e *fdEngine) blocks(c int, cache *blockCache, runs *int) (b []block, exact, closed bool) {
	if e.field != fieldL2Sq {
		return nil, false, false
	}
	inIDs, inW := e.sym.InEdges(c)
	outIDs, outW := e.sym.OutEdges(c)
	first := 0 // the in-run's position in Neighbors' order
	switch {
	case len(inIDs) == 0 || len(outIDs) == 0 || inIDs[len(inIDs)-1] < outIDs[0]:
	case outIDs[len(outIDs)-1] < inIDs[0]:
		first = 1
	default:
		return nil, false, false
	}
	b = cache.b[:]
	b[first].ids, b[first].ws, b[first].side = inIDs, inW, 0
	b[1-first].ids, b[1-first].ws, b[1-first].side = outIDs, outW, 1
	if len(b[1].ids) == 0 {
		b = b[:1]
	}
	if len(b[0].ids) == 0 {
		b = b[1:]
	}
	var bound float64
	repeated := true
	for i := range b {
		r := &b[i]
		n := int64(len(r.ids))
		var uniform bool
		r.w, uniform = uniformWeight(r.ws)
		if !uniform || r.w != math.Trunc(r.w) || math.IsInf(r.w, 0) ||
			(int(r.ids[0]) < c && c < int(r.ids[n-1])) || n > e.maxRun {
			return b, false, false
		}
		if bound += r.w * float64(n*e.forceSpan); !(bound < exactLimit) {
			return b, false, false
		}
		if !sameRun(cache.ids[r.side], r.ids) {
			cache.ids[r.side], cache.ready[r.side], repeated = r.ids, false, false
		}
	}
	if !repeated {
		return b, true, false
	}
	for i := range b {
		r := &b[i]
		if !cache.ready[r.side] {
			cache.agg[r.side], cache.ready[r.side] = e.aggregate(r.ids), true
			*runs++
		}
		r.agg = cache.agg[r.side]
	}
	return b, true, true
}

// uniformWeight returns the weight every entry of a weight run carries, and
// whether there is exactly one (a broadcast run is one weight long).
func uniformWeight(ws []float64) (float64, bool) {
	for _, w := range ws[1:] {
		if math.Float64bits(w) != math.Float64bits(ws[0]) {
			return 0, false
		}
	}
	return ws[0], true
}

// sameRun reports whether two strictly increasing id runs are equal. Equal
// ends and length with the span of a run of consecutive ids leave no room for
// a difference, so dense rows compare in O(1).
func sameRun(a, b []int32) bool {
	switch {
	case len(a) != len(b):
		return false
	case len(a) == 0 || &a[0] == &b[0]:
		return true
	case a[0] != b[0] || a[len(a)-1] != b[len(b)-1]:
		return false
	}
	return int(a[len(a)-1]-a[0]) == len(a)-1 || slices.Equal(a, b)
}

// aggregate sums the cells of an id run.
func (e *fdEngine) aggregate(ids []int32) runAgg {
	a := runAgg{n: int64(len(ids))}
	for _, id := range ids {
		q := e.at[id]
		x, y := int64(q.x), int64(q.y)
		a.sx += x
		a.sy += y
		a.sxx += x * x
		a.syy += y * y
	}
	return a
}

// energy returns the block's contribution to E_s from cluster c at cell pc:
// w·Σ_k ((x_k−x_c)² + (y_k−y_c)²) when the run lies above c (energyRun counts
// each pair from its smaller cluster), else 0.
func (r *block) energy(c int32, pc cellXY) float64 {
	if r.ids[0] < c {
		return 0
	}
	x, y := int64(pc.x), int64(pc.y)
	a := r.agg
	d := a.sxx - 2*x*a.sx + a.n*x*x + a.syy - 2*y*a.sy + a.n*y*y
	return r.w * float64(d)
}

// blockForce stores the force of the cluster at cell idx (coordinate q) from
// its blocks and fills the cell's mutw slots: forceRun's sums in closed
// form. Over a run, Σ_k (−2(x_k−x_c) − 1) = −2(Σx − n·x_c) − n is Force-up
// per unit weight, and the other directions follow the same pattern. The
// mutw slot of pair idx*2 (idx*2+1) holds the weight of the run containing
// the occupant of the cell to the right (below), found by binary search.
func (e *fdEngine) blockForce(idx int32, q cellXY, b []block) {
	x, y := int64(q.x), int64(q.y)
	var up, down, right, left float64
	for i := range b {
		r := &b[i]
		a := r.agg
		dx, dy := 2*(a.sx-a.n*x), 2*(a.sy-a.n*y)
		up += r.w * float64(-dx-a.n)
		down += r.w * float64(dx-a.n)
		right += r.w * float64(dy-a.n)
		left += r.w * float64(-dy-a.n)
	}
	e.storeForce(idx, q, up, down, right, left)
	if q.y < int32(e.mesh.Cols)-1 {
		e.fillMutw(idx*2, e.pl.ClusterAt[idx+1], b)
	}
	if q.x < int32(e.mesh.Rows)-1 {
		e.fillMutw(idx*2+1, e.pl.ClusterAt[idx+int32(e.mesh.Cols)], b)
	}
}

// fillMutw stores in mutw[id] the weight of the block holding cluster other,
// if any: by range on a run of consecutive ids, else by binary search.
func (e *fdEngine) fillMutw(id, other int32, b []block) {
	if other == place.None {
		return
	}
	for i := range b {
		ids := b[i].ids
		lo, hi := ids[0], ids[len(ids)-1]
		found := lo <= other && other <= hi
		if found && int(hi-lo) != len(ids)-1 {
			_, found = slices.BinarySearch(ids, other)
		}
		if found {
			e.mutw[id] = b[i].w
			return
		}
	}
}

// storeForce writes the four directional sums of cell idx (coordinate q),
// zeroing the directions that point off the mesh.
func (e *fdEngine) storeForce(idx int32, q cellXY, up, down, right, left float64) {
	if q.x == 0 {
		up = 0
	}
	if q.x == int32(e.mesh.Rows)-1 {
		down = 0
	}
	if q.y == int32(e.mesh.Cols)-1 {
		right = 0
	}
	if q.y == 0 {
		left = 0
	}
	f := e.force[int(idx)*4:][:4]
	f[geom.Up], f[geom.Down], f[geom.Right], f[geom.Left] = up, down, right, left
}

// forceRun continues the four directional sums of the cluster at cell idx
// (coordinate pa) over one neighbor run. A neighbor met one cell to the
// right or one below is the other occupant of pair idx*2 or idx*2+1, and
// its combined weight — Symmetric.Neighbors' out+in sum, the same bits from
// either end since fl(a+b) = fl(b+a) — is that pair's mutw. Each cell
// writes only its own two slots, so buildAllForces stays race-free at any
// worker count.
func (e *fdEngine) forceRun(idx int32, pa cellXY, tos []int32, ws []float64, up, down, right, left float64) (float64, float64, float64, float64) {
	mask := pcn.WeightMask(tos, ws)
	l2sq := e.field == fieldL2Sq
	for k, to := range tos {
		q := e.at[to]
		x, y := int(q.x-pa.x), int(q.y-pa.y)
		var su, sd, sr, sl float64
		if l2sq {
			fx, fy := float64(2*x), float64(2*y)
			su, sd, sr, sl = -fx-1, fx-1, fy-1, -fy-1
		} else {
			su, sd, sr, sl = e.steps(x, y)
		}
		w := ws[k&mask]
		up += w * su
		down += w * sd
		right += w * sr
		left += w * sl
		if x == 0 && y == 1 {
			e.mutw[idx*2] = w
		} else if x == 1 && y == 0 {
			e.mutw[idx*2+1] = w
		}
	}
	return up, down, right, left
}

// pairCells decodes a pair id into its two cell indices and the direction
// from the first cell to the second.
func (e *fdEngine) pairCells(id int32) (a, b int32, d geom.Dir) {
	a = id >> 1
	if id&1 == 0 {
		return a, a + 1, geom.Right
	}
	return a, a + int32(e.mesh.Cols), geom.Down
}

// blocked reports whether the swap of pair id is illegal on the defective
// mesh: it reaches into a reserved spare row or touches a dead cell.
func (e *fdEngine) blocked(id int32) bool {
	if e.spareStart < int32(e.mesh.Rows) {
		// For both pair orientations (right, down) cell b has the larger
		// row, so only b can cross into the reserved bottom rows.
		_, b, _ := e.pairCells(id)
		if b >= e.spareStart*int32(e.mesh.Cols) {
			return true
		}
	}
	if e.defects == nil {
		return false
	}
	a, b, _ := e.pairCells(id)
	return e.defects.IsDead(int(a)) || e.defects.IsDead(int(b))
}

// tension takes the direction opposite to a pair's Right or Down as d^1.
var _ = [1]struct{}{}[(geom.Up^1)^geom.Down|(geom.Right^1)^geom.Left]

// tension returns the exact swap gain (Eq. 30 corrected for mutual edges)
// for the adjacent-cell pair id: the decrease of E_s if the two cells'
// contents are exchanged. Swaps blocked by the defect map report zero.
func (e *fdEngine) tension(id int32) float64 {
	if e.canBlock && e.blocked(id) {
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
		return e.force[int(b)*4+int(d^1)]
	default:
		t := e.force[int(a)*4+int(d)] + e.force[int(b)*4+int(d^1)]
		if w := e.mutw[id]; w != 0 {
			t -= w * e.unitCorr
		}
		return t
	}
}

// beginEpoch resets the affected-cluster list for a new iteration. Every
// set mark belongs to a listed cluster, so clearing the listed clusters'
// words clears them all.
func (e *fdEngine) beginEpoch() {
	for _, c := range e.affected {
		e.clusterMark[c>>6] = 0
	}
	e.affected = e.affected[:0]
}

// applyBatch executes the swap phase of one iteration (Alg. 3 lines 17-29)
// on the queue's top-λ prefix: re-check each pair's tension against the
// state the earlier swaps of the batch left, and swap while it is positive.
func (e *fdEngine) applyBatch(ctx context.Context, batch []pairTension, minGain float64, stats *FDStats) {
	for i := range batch {
		if i&8191 == 8191 && ctx.Err() != nil {
			break // finish the epoch bookkeeping, fail at the loop head
		}
		stats.TensionChecks++
		if e.tension(batch[i].id) > minGain {
			e.swapPair(batch[i].id)
			stats.Swaps++
		}
	}
}

func (e *fdEngine) markAffected(c int32) {
	e.dirty[c/energyChunk] = true
	if e.clusterMark.add(c) {
		e.affected = append(e.affected, c)
	}
}

// swapPair executes the swap of pair id (Alg. 3 lines 20-27): exchange the
// two cells' contents, then one neighborhood walk per moved cluster
// (moveCluster) rebuilds its force, refills the mutw slots the swap
// invalidated, maintains every connected cluster's force and records the
// affected clusters.
//
// The two walks are independent because PCN.Validate admits no self-edge:
// a moved cluster is never its own neighbor and the co-swapped one is
// skipped, so the forces a walk maintains sit in neither swapped cell, and
// the from-scratch sums read positions only — neither walk reads a force
// the other writes.
func (e *fdEngine) swapPair(id int32) {
	a, b, _ := e.pairCells(id)
	ca, cb := e.pl.ClusterAt[a], e.pl.ClusterAt[b]
	pa, pb := e.cell(a), e.cell(b)
	e.pl.SwapCores(a, b)
	if ca != place.None {
		e.at[ca] = pb
	}
	if cb != place.None {
		e.at[cb] = pa
	}
	// The occupants of cells a and b changed: every pair touching either
	// cell has a stale mutual weight until the walks below refill it.
	var stale [8]int32
	for _, pid := range e.pairsTouching(pb, e.pairsTouching(pa, stale[:0])) {
		e.mutw[pid] = 0
	}
	e.moveCluster(ca, cb, pa, pb)
	e.moveCluster(cb, ca, pb, pa)
}

// moveCluster is the swap kernel for the cluster moved, which SwapCores just
// carried from the cell at ps to the cell at pd (other, possibly
// place.None, went the opposite way). One pass over moved's neighbors in
// ascending id order sums its force at pd from scratch — the order and
// operands of buildAllForces, other included — and applies Alg. 3 line 24
// to every neighbor but other, whose cell the opposite walk rebuilds.
func (e *fdEngine) moveCluster(moved, other int32, ps, pd cellXY) {
	dst := pd.x*int32(e.mesh.Cols) + pd.y
	if moved == place.None {
		clear(e.force[int(dst)*4:][:4])
		return
	}
	to1, w1, to2, w2 := e.sym.Neighbors(int(moved), &e.buf)
	up, down, right, left := e.moveRun(other, ps, pd, to1, w1, 0, 0, 0, 0)
	up, down, right, left = e.moveRun(other, ps, pd, to2, w2, up, down, right, left)
	e.storeForce(dst, pd, up, down, right, left)
	e.markAffected(moved)
}

// moveRun is moveCluster over one neighbor run. From each neighbor's
// coordinate, loaded once, it (a) continues the moved cluster's four sums at
// pd exactly as forceRun does; (b) when the neighbor's cell is adjacent to
// pd, stores its weight as the mutw of the pair the two cells form — the
// value Symmetric.Weight's binary searches would return (see forceRun); and
// (c) moves the neighbor's field origin from ps to pd: its force changes
// by w·(steps(pd−pk) − steps(ps−pk)), which for L2Sq is the per-swap
// constant ±2·(pd−ps), a difference of exact small integers.
func (e *fdEngine) moveRun(other int32, ps, pd cellXY, tos []int32, ws []float64, up, down, right, left float64) (float64, float64, float64, float64) {
	rows, cols := int32(e.mesh.Rows), int32(e.mesh.Cols)
	dst := pd.x*cols + pd.y
	l2sq := e.field == fieldL2Sq
	mx, my := int(pd.x-ps.x), int(pd.y-ps.y)
	du, dd, dr, dl := float64(-2*mx), float64(2*mx), float64(2*my), float64(-2*my)
	mask := pcn.WeightMask(tos, ws)
	for k, to := range tos {
		w := ws[k&mask]
		pk := e.at[to]
		cell := pk.x*cols + pk.y
		x, y := int(pk.x-pd.x), int(pk.y-pd.y)
		var su, sd, sr, sl float64
		if l2sq {
			fx, fy := float64(2*x), float64(2*y)
			su, sd, sr, sl = -fx-1, fx-1, fy-1, -fy-1
		} else {
			su, sd, sr, sl = e.steps(x, y)
		}
		up += w * su
		down += w * sd
		right += w * sr
		left += w * sl
		if x*x+y*y == 1 {
			e.mutw[min(cell, dst)*2+int32(x&1)] = w
		}
		if to == other {
			continue
		}
		if !l2sq {
			newU, newD, newR, newL := e.steps(-x, -y)
			oldU, oldD, oldR, oldL := e.steps(int(ps.x-pk.x), int(ps.y-pk.y))
			du, dd, dr, dl = newU-oldU, newD-oldD, newR-oldR, newL-oldL
		}
		f := e.force[int(cell)*4:][:4]
		if pk.x > 0 {
			f[geom.Up] += w * du
		}
		if pk.x < rows-1 {
			f[geom.Down] += w * dd
		}
		if pk.y < cols-1 {
			f[geom.Right] += w * dr
		}
		if pk.y > 0 {
			f[geom.Left] += w * dl
		}
		e.markAffected(to)
	}
	return up, down, right, left
}

// pairsTouching appends the (up to four) pair ids whose cells include the
// cell at q.
func (e *fdEngine) pairsTouching(q cellXY, out []int32) []int32 {
	cols := int32(e.mesh.Cols)
	idx := q.x*cols + q.y
	if q.y < cols-1 {
		out = append(out, idx*2)
	}
	if q.y > 0 {
		out = append(out, (idx-1)*2)
	}
	if q.x < int32(e.mesh.Rows)-1 {
		out = append(out, idx*2+1)
	}
	if q.x > 0 {
		out = append(out, (idx-cols)*2+1)
	}
	return out
}

// initialQueue builds the first tension queue (Alg. 3 lines 6-13): all
// adjacent pairs with positive tension, ordered by finalizeQueue. Each cell
// enumerates the pairs it is the first cell of — right (id idx*2), then down
// (idx*2+1) — so every pair is seen once. par's fixed chunks of the cell
// range are scanned into per-chunk parts concatenated in chunk order, so the
// pre-selection sequence is the cell order at any worker count.
func (e *fdEngine) initialQueue(workers int) []pairTension {
	rows, cols, n := int32(e.mesh.Rows), int32(e.mesh.Cols), e.mesh.Cores()
	k := par.Chunks(n)
	chunk := (n + k - 1) / k
	parts := make([][]pairTension, k)
	par.Do(workers, k, func(ci int) {
		var out []pairTension
		add := func(id int32) {
			if t := e.tension(id); t > 0 {
				out = append(out, pairTension{id: id, tension: t})
			}
		}
		for idx := int32(min(ci*chunk, n)); idx < int32(min((ci+1)*chunk, n)); idx++ {
			if idx%cols < cols-1 {
				add(idx * 2)
			}
			if idx/cols < rows-1 {
				add(idx*2 + 1)
			}
		}
		parts[ci] = out
	})
	queue := slices.Concat(parts...)
	e.finalizeQueue(queue)
	return queue
}

// nextQueue implements Alg. 3 lines 30-40: mark the candidates — the
// current queue and every pair touching an affected cluster — in the pending
// set, then re-evaluate them once each in ascending pair id, so tension reads
// the placement, force and mutw arrays front to back, keeping the pairs whose
// tension still exceeds minGain; order the result (finalizeQueue). The old
// queue is dead once marked, so the new one is written over it.
func (e *fdEngine) nextQueue(queue []pairTension, minGain float64, checks *int64) []pairTension {
	for _, pt := range queue {
		e.pending.add(pt.id)
	}
	var scratch [4]int32
	for _, c := range e.affected {
		for _, id := range e.pairsTouching(e.at[c], scratch[:0]) {
			e.pending.add(id)
		}
	}
	next := queue[:0]
	for i, w := range e.pending {
		if w == 0 {
			continue
		}
		e.pending[i] = 0
		*checks += int64(bits.OnesCount64(w))
		for ; w != 0; w &= w - 1 {
			id := int32(i<<6 | bits.TrailingZeros64(w))
			if t := e.tension(id); t > minGain {
				next = append(next, pairTension{id: id, tension: t})
			}
		}
	}
	e.finalizeQueue(next)
	return next
}

// finalizeQueue orders a freshly built queue for the next iteration. Only
// the fullSort oracle needs the historical full sort: the sweep consumes
// exactly the top ⌈λ·|Q|⌉ entries in order and nextQueue treats the rest
// of the queue as an unordered set, so deterministically selecting and
// sorting that prefix alone (selectTop) leaves the executed swap sequence
// provably unchanged — see DESIGN.md.
func (e *fdEngine) finalizeQueue(q []pairTension) {
	if e.fullSort {
		slices.SortFunc(q, queueCmp)
		return
	}
	selectTop(q, swapLimit(e.lambda, len(q)))
}
