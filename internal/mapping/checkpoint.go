package mapping

import (
	"context"
	"fmt"
	"math"
	"slices"
	"time"

	"snnmap/internal/pcn"
	"snnmap/internal/place"
)

// Snapshot is a resumable loop-head state of one Finetune run. It captures
// everything the iteration loop consults — the placement, the incrementally
// maintained force array verbatim (rebuilding it from scratch would not be
// bit-identical, because the maintenance applies floating-point deltas), the
// ordered tension queue, the run statistics, and the resolved MinGain —
// together with a fingerprint of the configuration and PCN it was taken
// against, so ResumeFinetune can reject a mismatched restart instead of
// silently diverging. Transient per-iteration scratch (epoch marks, affected
// lists) is deliberately absent: fresh zeroed marks behave identically at a
// loop head.
//
// Snapshots are deep copies: they stay valid after the run that produced
// them continues or returns, and resuming from one leaves it untouched, so
// the same snapshot can be resumed repeatedly (each resume gets its own
// placement clone).
type Snapshot struct {
	// Potential is the Name() of the field shape the run used; PotUnit and
	// PotZero pin its u(1) and u(0) so a same-named potential with a
	// different cost model is still rejected.
	Potential        string
	PotUnit, PotZero float64
	// Lambda and MinGain are the resolved (post-default) values; MinGain is
	// authoritative on resume because the adaptive default depends on the
	// initial energy, which a resumed run no longer observes.
	Lambda  float64
	MinGain float64
	// Clusters and Edges fingerprint the PCN the snapshot belongs to.
	Clusters int
	Edges    int64
	// Stats is the statistics accumulated up to the capture point;
	// FinalEnergy holds the system energy at capture and Converged is
	// always false (a converged run produces no snapshot).
	Stats FDStats
	// Placement is the deep-copied placement at the capture point.
	Placement *place.Placement
	// Force is the verbatim force array: force[idx*4+d] for cell idx.
	Force []float64
	// QueueIDs and QueueTensions are the ordered tension queue (parallel
	// slices).
	QueueIDs      []int32
	QueueTensions []float64
	// PCN optionally embeds the network itself so a snapshot file is fully
	// self-contained; nil when the caller prefers to re-supply the PCN on
	// resume (it is immutable during fine-tuning, so the engine shares the
	// pointer rather than copying).
	PCN *pcn.PCN
}

// snapshot captures the engine's current loop-head state as a deep copy.
func (e *fdEngine) snapshot(queue []pairTension, stats FDStats, minGain float64) *Snapshot {
	ids := make([]int32, len(queue))
	tens := make([]float64, len(queue))
	for i, pt := range queue {
		ids[i] = pt.id
		tens[i] = pt.tension
	}
	return &Snapshot{
		Potential:     e.pot.Name(),
		PotUnit:       e.pot.AtUnit(),
		PotZero:       e.pot.AtZero(),
		Lambda:        e.lambda,
		MinGain:       minGain,
		Clusters:      e.p.NumClusters,
		Edges:         e.p.NumEdges(),
		Stats:         stats,
		Placement:     e.pl.Clone(),
		Force:         slices.Clone(e.force),
		QueueIDs:      ids,
		QueueTensions: tens,
		PCN:           e.p,
	}
}

// Validate checks the snapshot's internal consistency: a valid placement
// matching the cluster count, a force array sized to the mesh, a
// well-formed queue (unique in-mesh pair ids, parallel tension slice), and
// finite numeric fields. It does not check the snapshot against any
// particular PCN or FDConfig — ResumeFinetune does that.
func (s *Snapshot) Validate() error {
	if s == nil {
		return fmt.Errorf("mapping: nil snapshot")
	}
	if s.Placement == nil {
		return fmt.Errorf("mapping: snapshot has no placement")
	}
	if err := s.Placement.Validate(); err != nil {
		return fmt.Errorf("mapping: snapshot placement: %w", err)
	}
	if s.Clusters != len(s.Placement.PosOf) {
		return fmt.Errorf("mapping: snapshot cluster count %d, placement covers %d", s.Clusters, len(s.Placement.PosOf))
	}
	if s.Edges < 0 {
		return fmt.Errorf("mapping: snapshot has negative edge count %d", s.Edges)
	}
	mesh := s.Placement.Mesh
	cores := mesh.Cores()
	if len(s.Force) != 4*cores {
		return fmt.Errorf("mapping: snapshot force array has %d entries, mesh %v needs %d", len(s.Force), mesh, 4*cores)
	}
	for i, f := range s.Force {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return fmt.Errorf("mapping: snapshot force[%d] is %g", i, f)
		}
	}
	if len(s.QueueIDs) != len(s.QueueTensions) {
		return fmt.Errorf("mapping: snapshot queue has %d ids but %d tensions", len(s.QueueIDs), len(s.QueueTensions))
	}
	if len(s.QueueIDs) > 2*cores {
		return fmt.Errorf("mapping: snapshot queue has %d entries, mesh %v admits at most %d pairs", len(s.QueueIDs), mesh, 2*cores)
	}
	seen := make([]bool, 2*cores)
	cols := int32(mesh.Cols)
	rows := int32(mesh.Rows)
	for i, id := range s.QueueIDs {
		if id < 0 || int(id) >= 2*cores {
			return fmt.Errorf("mapping: snapshot queue id %d out of range [0, %d)", id, 2*cores)
		}
		a := id / 2
		if id%2 == 0 {
			if a%cols == cols-1 {
				return fmt.Errorf("mapping: snapshot queue id %d pairs cell %d with a right neighbor off-mesh", id, a)
			}
		} else if a/cols == rows-1 {
			return fmt.Errorf("mapping: snapshot queue id %d pairs cell %d with a down neighbor off-mesh", id, a)
		}
		if seen[id] {
			return fmt.Errorf("mapping: snapshot queue repeats pair id %d", id)
		}
		seen[id] = true
		if t := s.QueueTensions[i]; math.IsNaN(t) || math.IsInf(t, 0) {
			return fmt.Errorf("mapping: snapshot queue tension[%d] is %g", i, t)
		}
	}
	if math.IsNaN(s.Lambda) || s.Lambda <= 0 || s.Lambda > 1 {
		return fmt.Errorf("mapping: snapshot lambda %g outside (0, 1]", s.Lambda)
	}
	if math.IsNaN(s.MinGain) || s.MinGain < 0 {
		return fmt.Errorf("mapping: snapshot MinGain %g invalid", s.MinGain)
	}
	if math.IsNaN(s.PotUnit) || math.IsInf(s.PotUnit, 0) || math.IsNaN(s.PotZero) || math.IsInf(s.PotZero, 0) {
		return fmt.Errorf("mapping: snapshot potential samples not finite (u(1)=%g, u(0)=%g)", s.PotUnit, s.PotZero)
	}
	if math.IsNaN(s.Stats.InitialEnergy) || math.IsInf(s.Stats.InitialEnergy, 0) ||
		math.IsNaN(s.Stats.FinalEnergy) || math.IsInf(s.Stats.FinalEnergy, 0) {
		return fmt.Errorf("mapping: snapshot energies not finite")
	}
	if s.Stats.Iterations < 0 || s.Stats.Swaps < 0 || s.Stats.TensionChecks < 0 {
		return fmt.Errorf("mapping: snapshot statistics counters negative")
	}
	if s.Stats.Elapsed < 0 {
		return fmt.Errorf("mapping: snapshot elapsed time negative")
	}
	return nil
}

// ResumeFinetune continues a Finetune run from a snapshot, returning the
// (freshly cloned) placement it worked on together with the cumulative
// statistics. p may be nil when the snapshot embeds its PCN; when both are
// given, p is used but must match the snapshot's fingerprint. cfg must agree
// with the run that produced the snapshot on Potential, Lambda and (if
// explicitly set) MinGain — any other combination would not
// reproduce the uninterrupted run and is rejected with ErrBadConfig. Budget,
// MaxIterations, Workers, Checkpoint, Defects and Constraints are the
// caller's to choose: Budget caps this run's wall clock (resumed runs get a
// fresh budget), MaxIterations still bounds the cumulative iteration count,
// and Workers is free to differ because results are bit-identical at any
// worker count. Defects and Constraints are not captured in the snapshot and
// must be re-supplied identically by the caller for bit-identical resumption.
//
// Resuming an uncanceled snapshot at iteration k completes bit-identically
// to the run that produced it: same placement, same FDStats modulo Elapsed
// (which accumulates across the interruption).
func ResumeFinetune(ctx context.Context, p *pcn.PCN, snap *Snapshot, cfg FDConfig) (*place.Placement, FDStats, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, FDStats{}, fmt.Errorf("mapping: resume: %w", err)
	}
	if err := snap.Validate(); err != nil {
		return nil, FDStats{}, fmt.Errorf("mapping: resume: %w", err)
	}
	if p == nil {
		p = snap.PCN
	}
	if p == nil {
		return nil, FDStats{}, fmt.Errorf("mapping: resume: %w: no PCN given and snapshot embeds none", ErrBadConfig)
	}
	if p.NumClusters != snap.Clusters || p.NumEdges() != snap.Edges {
		return nil, FDStats{}, fmt.Errorf("mapping: resume: %w: PCN has %d clusters/%d edges, snapshot was taken against %d/%d",
			ErrBadConfig, p.NumClusters, p.NumEdges(), snap.Clusters, snap.Edges)
	}
	if cfg.Potential.Name() != snap.Potential ||
		cfg.Potential.AtUnit() != snap.PotUnit || cfg.Potential.AtZero() != snap.PotZero {
		return nil, FDStats{}, fmt.Errorf("mapping: resume: %w: potential %q does not match snapshot's %q",
			ErrBadConfig, cfg.Potential.Name(), snap.Potential)
	}
	if cfg.Lambda != snap.Lambda {
		return nil, FDStats{}, fmt.Errorf("mapping: resume: %w: lambda %g does not match snapshot's %g",
			ErrBadConfig, cfg.Lambda, snap.Lambda)
	}
	if cfg.MinGain > 0 && cfg.MinGain != snap.MinGain {
		return nil, FDStats{}, fmt.Errorf("mapping: resume: %w: MinGain %g does not match snapshot's resolved %g",
			ErrBadConfig, cfg.MinGain, snap.MinGain)
	}
	if err := ctx.Err(); err != nil {
		return nil, FDStats{}, fmt.Errorf("mapping: resume: %v: %w", err, ErrCanceled)
	}

	e, queue := resumeEngine(p, snap, cfg)
	stats := snap.Stats
	stats.Converged = false
	stats, err := e.run(ctx, cfg, queue, stats, snap.MinGain, time.Now(), stats.Elapsed)
	return e.pl, stats, err
}

// resumeEngine restores the loop-head state a snapshot captured: an engine on
// a clone of its placement, and its ordered queue. The build walk is what
// fills mutw and the energy partials; its forces are then replaced by the
// snapshot's incrementally maintained ones, which the resumed run must
// continue from bit for bit.
func resumeEngine(p *pcn.PCN, snap *Snapshot, cfg FDConfig) (*fdEngine, []pairTension) {
	e := newFDEngine(p, snap.Placement.Clone(), cfg)
	e.buildAllForces(cfg.Workers)
	copy(e.force, snap.Force)
	queue := make([]pairTension, len(snap.QueueIDs))
	for i, id := range snap.QueueIDs {
		queue[i] = pairTension{id: id, tension: snap.QueueTensions[i]}
	}
	return e, queue
}
