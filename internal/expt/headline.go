package expt

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"text/tabwriter"
	"time"

	"snnmap/internal/curve"
	"snnmap/internal/hw"
	"snnmap/internal/mapping"
	"snnmap/internal/metrics"
	"snnmap/internal/pcn"
	"snnmap/internal/place"
)

// The instrumented headline pipeline: expand → HSC place → FD fine-tune →
// evaluate, each stage timed and bracketed by a heap high-water sampler.
// RunHeadline is the single source of the per-stage wall/peak-bytes splits
// cmd/experiments prints.

// HeadlineOptions tunes the instrumented pipeline beyond RunOptions.
type HeadlineOptions struct {
	// FDIterations caps the fine-tuning outer loop (0 = run to convergence
	// or the RunOptions budget). Tests pin a small cap so a run does a
	// fixed amount of work.
	FDIterations int
	// SampleInterval is the heap sampler cadence (default 5ms). Each sample
	// is one runtime.ReadMemStats call; at the default cadence the sampler
	// costs well under 1% of any stage it brackets.
	SampleInterval time.Duration
}

// HeadlineStage is one measured stage of the pipeline.
type HeadlineStage struct {
	// Name is the stage identifier: expand, hsc-place, fd-finetune,
	// evaluate.
	Name string
	// Wall is the stage's wall-clock time.
	Wall time.Duration
	// PeakBytes is the heap high-water mark (runtime.MemStats.HeapAlloc)
	// sampled during the stage. The runtime GCs between stages, so the
	// value reads as this stage's live+transient footprint over the
	// pipeline's retained baseline, not a cumulative maximum.
	PeakBytes uint64
	// Allocs is the number of heap allocations the stage performed
	// (runtime.MemStats.Mallocs delta, all goroutines).
	Allocs uint64
}

// HeadlineResult is one instrumented end-to-end pipeline run.
type HeadlineResult struct {
	Workload string
	Neurons  int64
	Clusters int
	Edges    int64
	Mesh     hw.Mesh
	Stages   []HeadlineStage
	// TotalWall sums the stage walls (inter-stage GC pauses excluded).
	TotalWall time.Duration
	// PeakBytes is the run-wide heap high-water mark.
	PeakBytes uint64
	FD        mapping.FDStats
	Summary   metrics.Summary
}

// Stage returns the named stage measurement (zero value when absent).
func (r *HeadlineResult) Stage(name string) HeadlineStage {
	for _, s := range r.Stages {
		if s.Name == name {
			return s
		}
	}
	return HeadlineStage{}
}

// RunHeadline executes the full proposed pipeline on one workload with
// per-stage instrumentation. The expansion stage always runs fresh (never
// the process-wide Build memo) so its time and footprint are measured. The
// placement stage is the parallel HSC fill at opts.Workers; fine-tuning and
// evaluation also fan out at opts.Workers. Results are bit-identical at any
// worker count per the underlying contracts.
func RunHeadline(workload string, opts RunOptions, hopts HeadlineOptions) (*HeadlineResult, error) {
	wl, err := WorkloadByName(workload)
	if err != nil {
		return nil, err
	}
	opts = opts.withDefaults()

	res := &HeadlineResult{Workload: wl.Name}
	sampler := newPeakSampler(hopts.SampleInterval)
	defer sampler.stop()
	stage := func(name string, fn func() error) error {
		// Collect before each stage so the sampler's high-water mark
		// attributes transient garbage to the stage that produced it.
		runtime.GC()
		sampler.reset()
		var before runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		if err := fn(); err != nil {
			return fmt.Errorf("expt: headline %s stage: %w", name, err)
		}
		wall := time.Since(start)
		peak := sampler.read()
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		res.Stages = append(res.Stages, HeadlineStage{
			Name: name, Wall: wall, PeakBytes: peak,
			Allocs: after.Mallocs - before.Mallocs,
		})
		res.TotalWall += wall
		if peak > res.PeakBytes {
			res.PeakBytes = peak
		}
		return nil
	}

	var p *pcn.PCN
	var mesh hw.Mesh
	if err := stage("expand", func() error {
		cfg := pcn.DefaultPartition()
		cfg.Workers = opts.Workers
		cfg.Obs = opts.Obs
		var err error
		if p, err = pcn.Expand(wl.Net(), cfg); err != nil {
			return err
		}
		mesh = MeshFor(p.NumClusters)
		return nil
	}); err != nil {
		return nil, err
	}
	res.Neurons = wl.Net().NumNeurons()
	res.Clusters = p.NumClusters
	res.Edges = p.NumEdges()
	res.Mesh = mesh

	var pl *place.Placement
	if err := stage("hsc-place", func() error {
		var err error
		pl, err = mapping.InitialPlacementWorkers(p, mesh, curve.Hilbert{}, opts.Defects, opts.Constraints, opts.Workers)
		return err
	}); err != nil {
		return nil, err
	}

	if err := stage("fd-finetune", func() error {
		var err error
		res.FD, err = mapping.Finetune(p, pl, mapping.FDConfig{
			Potential:     mapping.L2Sq{},
			MaxIterations: hopts.FDIterations,
			Budget:        opts.Budget,
			Workers:       opts.Workers,
			Defects:       opts.Defects,
			Constraints:   opts.Constraints,
			Checkpoint:    opts.Checkpoint,
			Obs:           opts.Obs,
		})
		return err
	}); err != nil {
		return nil, err
	}

	if err := stage("evaluate", func() error {
		res.Summary = metrics.Evaluate(p, pl, opts.Cost, metrics.Options{Workers: opts.Workers, Obs: opts.Obs})
		return nil
	}); err != nil {
		return nil, err
	}
	return res, nil
}

// Render prints the result as the cmd/experiments headline report: the
// workload line, the per-stage split table, and the totals.
func (r *HeadlineResult) Render(w io.Writer) {
	fmt.Fprintf(w, "%s: %s neurons, %d clusters, %s connections, %v mesh\n",
		r.Workload, humanCount(r.Neurons), r.Clusters, humanCount(r.Edges), r.Mesh)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Stage\tWall\tPeak heap\tAllocs")
	for _, s := range r.Stages {
		fmt.Fprintf(tw, "%s\t%s\t%s\t%d\n", s.Name, fmtDuration(s.Wall), humanBytes(s.PeakBytes), s.Allocs)
	}
	fmt.Fprintf(tw, "total\t%s\t%s\t\n", fmtDuration(r.TotalWall), humanBytes(r.PeakBytes))
	tw.Flush()
	fmt.Fprintf(w, "proposed approach solved in %s%s\n", fmtDuration(r.TotalWall), esMark(!r.FD.Converged))
	fmt.Fprintf(w, "metrics: %s\n", r.Summary)
}

// humanBytes renders a byte count with a binary-prefix unit.
func humanBytes(b uint64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.2f GiB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.1f MiB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1f KiB", float64(b)/(1<<10))
	}
	return fmt.Sprintf("%d B", b)
}

// peakSampler tracks the heap high-water mark (MemStats.HeapAlloc) with a
// background ticker plus synchronous samples at reset/read, so short stages
// between ticks still observe at least their entry and exit heap sizes.
type peakSampler struct {
	mu   sync.Mutex
	peak uint64
	// gen guards window edges: a ticker sample that read the heap before a
	// reset must not leak the previous stage's (pre-GC) size into the new
	// window, so samples only apply if no reset happened while they read.
	gen  uint64
	quit chan struct{}
	done chan struct{}
}

func newPeakSampler(interval time.Duration) *peakSampler {
	if interval <= 0 {
		interval = 5 * time.Millisecond
	}
	s := &peakSampler{quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-s.quit:
				return
			case <-t.C:
				s.sample()
			}
		}
	}()
	return s
}

func (s *peakSampler) sample() uint64 {
	s.mu.Lock()
	gen := s.gen
	s.mu.Unlock()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	s.mu.Lock()
	if s.gen == gen && m.HeapAlloc > s.peak {
		s.peak = m.HeapAlloc
	}
	p := s.peak
	s.mu.Unlock()
	return p
}

// reset starts a new high-water window at the current heap size.
func (s *peakSampler) reset() {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	s.mu.Lock()
	s.gen++
	s.peak = m.HeapAlloc
	s.mu.Unlock()
}

// read takes one final sample and returns the window's high-water mark.
func (s *peakSampler) read() uint64 {
	return s.sample()
}

func (s *peakSampler) stop() {
	select {
	case <-s.quit:
	default:
		close(s.quit)
		<-s.done
	}
}
