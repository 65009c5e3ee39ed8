// Package snnmap maps very large scale Spiking Neural Networks onto 2D-mesh
// neuromorphic hardware, reproducing Jin et al., "Mapping Very Large Scale
// Spiking Neuron Network to Neuromorphic Hardware" (ASPLOS 2023).
//
// The pipeline has three stages:
//
//  1. Describe the SNN application, either as an explicit neuron/synapse
//     graph (Graph) or as a scalable layer specification (Net). A model zoo
//     provides the paper's thirteen benchmark workloads.
//  2. Partition the application into a cluster network (PCN) respecting the
//     per-core capacity of the target hardware (Partition / Expand).
//  3. Place the clusters on the mesh (Map): a Hilbert-curve initial
//     placement followed by Force-Directed fine-tuning. Evaluate scores a
//     placement on the paper's five metrics, and Simulate replays the
//     traffic through a spike-level NoC simulator.
//
// Quick start:
//
//	net := snnmap.LeNetMNIST()
//	p, _ := snnmap.Expand(net, snnmap.DefaultPartition())
//	mesh := snnmap.MeshFor(p.NumClusters)
//	res, _ := snnmap.Map(p, mesh, snnmap.DefaultConfig())
//	sum, _ := snnmap.Evaluate(p, res.Placement, snnmap.DefaultCostModel(), snnmap.MetricOptions{})
package snnmap

import (
	"context"
	"fmt"
	"io"
	"time"

	"snnmap/internal/baseline"
	"snnmap/internal/cache"
	"snnmap/internal/codec"
	"snnmap/internal/curve"
	"snnmap/internal/hw"
	"snnmap/internal/mapping"
	"snnmap/internal/metrics"
	"snnmap/internal/noc"
	"snnmap/internal/obs"
	"snnmap/internal/pcn"
	"snnmap/internal/place"
	"snnmap/internal/snn"
)

// Application models (§3.2).
type (
	// Graph is an explicit SNN application graph G_SNN = (V_S, E_S, w_S).
	Graph = snn.Graph
	// GraphBuilder accumulates neurons and synapses into a Graph.
	GraphBuilder = snn.GraphBuilder
	// Net is a layer-level SNN application specification that scales to
	// billions of neurons.
	Net = snn.Net
	// Layer is one layer of a Net.
	Layer = snn.Layer
	// Conn is a layer-to-layer connection of a Net.
	Conn = snn.Conn
	// Pattern selects cluster-level connectivity (Dense, Local, OneToOne).
	Pattern = snn.Pattern
)

// Connectivity patterns for Net connections.
const (
	Dense    = snn.Dense
	Local    = snn.Local
	OneToOne = snn.OneToOne
)

// Hardware model (§3.1).
type (
	// Mesh is the N×M core grid.
	Mesh = hw.Mesh
	// Constraints holds CON_npc and CON_spc.
	Constraints = hw.Constraints
	// CostModel holds EN_r, EN_w, L_r, L_w.
	CostModel = hw.CostModel
	// Platform is a published hardware preset (Table 1).
	Platform = hw.Platform
)

// NewMesh returns an N×M mesh.
func NewMesh(rows, cols int) (Mesh, error) { return hw.NewMesh(rows, cols) }

// DefaultCostModel returns the paper's Table 2 interconnect parameters.
func DefaultCostModel() CostModel { return hw.DefaultCostModel() }

// DefaultConstraints returns the paper's Table 2 core capacities.
func DefaultConstraints() Constraints { return hw.DefaultConstraints() }

// Platforms returns the Table 1 hardware presets.
func Platforms() []Platform { return hw.Platforms() }

// PlatformByName returns one Table 1 preset.
func PlatformByName(name string) (Platform, bool) { return hw.PlatformByName(name) }

// Partitioning (§3.2, Algorithm 1).
type (
	// PCN is the partitioned cluster network G_PCN = (V_P, E_P, w_P).
	PCN = pcn.PCN
	// PartitionConfig controls Algorithm 1 / analytic expansion.
	PartitionConfig = pcn.PartitionConfig
	// PartitionResult pairs a PCN with the neuron→cluster assignment.
	PartitionResult = pcn.Result
)

// DefaultPartition returns the configuration matching the paper's Table 3.
func DefaultPartition() PartitionConfig { return pcn.DefaultPartition() }

// Partition runs Algorithm 1 on an explicit graph.
func Partition(g *Graph, cfg PartitionConfig) (*PartitionResult, error) {
	return pcn.Partition(g, cfg)
}

// Expand partitions a layer-spec Net analytically (identical cluster
// structure, no neuron materialization).
func Expand(n *Net, cfg PartitionConfig) (*PCN, error) { return pcn.Expand(n, cfg) }

// Mapping (§4).
type (
	// Config describes a mapping pipeline (curve + optional FD).
	Config = mapping.Config
	// FDConfig tunes the Force-Directed algorithm (Algorithm 3).
	FDConfig = mapping.FDConfig
	// FDStats reports one fine-tuning run.
	FDStats = mapping.FDStats
	// CheckpointConfig configures interval-based fine-tuning snapshots
	// (FDConfig.Checkpoint).
	CheckpointConfig = mapping.CheckpointConfig
	// FDSnapshot is a resumable loop-head state of a fine-tuning run.
	FDSnapshot = mapping.Snapshot
	// MapResult is Map's output.
	MapResult = mapping.Result
	// Placement assigns clusters to cores (Eq. 7).
	Placement = place.Placement
	// Potential is a force-field shape u(p) (§4.4.2).
	Potential = mapping.Potential
	// Curve is a visit order over the mesh's cells and a name: Hilbert,
	// ZigZag, Circle, the seeded random order behind RandomPlacement, or a
	// custom one. InitialPlacement fails with ErrBadConfig when a custom
	// curve's order is not a permutation of the mesh's cells.
	Curve = curve.Curve
)

// The potential-field family of §4.4.2.
type (
	// PotentialL1 is u_a(p) = |x|+|y| (Eq. 19).
	PotentialL1 = mapping.L1
	// PotentialL1Sq is u_b(p) = (|x|+|y|)² (Eq. 20).
	PotentialL1Sq = mapping.L1Sq
	// PotentialL2Sq is u_c(p) = x²+y² (Eq. 21), the paper's best choice.
	PotentialL2Sq = mapping.L2Sq
	// PotentialEnergy is Eq. 25, making FD minimize M_ec exactly.
	PotentialEnergy = mapping.EnergyPotential
)

// Space-filling curves (§4.2, §4.3).
type (
	// Hilbert is the paper's curve (generalized to any rectangle).
	Hilbert = curve.Hilbert
	// ZigZag is the boustrophedon comparison curve.
	ZigZag = curve.ZigZag
	// Circle is the inward-spiral comparison curve.
	Circle = curve.Circle
)

// DefaultConfig returns the paper's proposed approach: Hilbert-curve
// initial placement plus FD fine-tuning with the u_c potential.
func DefaultConfig() Config { return mapping.Default() }

// Map runs a mapping pipeline on a PCN.
func Map(p *PCN, mesh Mesh, cfg Config) (MapResult, error) { return mapping.Map(p, mesh, cfg) }

// MapContext is Map with cooperative cancellation: the pipeline checks ctx
// between (and periodically within) its phases and returns the partial
// result with an error wrapping ErrCanceled once the context is done.
func MapContext(ctx context.Context, p *PCN, mesh Mesh, cfg Config) (MapResult, error) {
	return mapping.MapContext(ctx, p, mesh, cfg)
}

// InitialPlacement computes P_init = Hilbert ∘ Seq (Eq. 17) for any curve.
func InitialPlacement(p *PCN, mesh Mesh, c Curve) (*Placement, error) {
	return mapping.InitialPlacement(p, mesh, c)
}

// InitialPlacementDefects is InitialPlacement on a defective mesh: the curve
// walk skips dead cells and the cons.SpareRows reserved bottom rows.
func InitialPlacementDefects(p *PCN, mesh Mesh, c Curve, d *DefectMap, cons Constraints) (*Placement, error) {
	return mapping.InitialPlacementDefects(p, mesh, c, d, cons)
}

// Finetune runs the Force-Directed algorithm on an existing placement.
func Finetune(p *PCN, pl *Placement, cfg FDConfig) (FDStats, error) {
	return mapping.Finetune(p, pl, cfg)
}

// FinetuneContext is Finetune with cooperative cancellation.
func FinetuneContext(ctx context.Context, p *PCN, pl *Placement, cfg FDConfig) (FDStats, error) {
	return mapping.FinetuneContext(ctx, p, pl, cfg)
}

// ResumeFinetune continues an interrupted fine-tuning run from a snapshot,
// bit-identically to the uninterrupted run at any Workers count. p may be
// nil when the snapshot embeds its PCN.
func ResumeFinetune(ctx context.Context, p *PCN, snap *FDSnapshot, cfg FDConfig) (*Placement, FDStats, error) {
	return mapping.ResumeFinetune(ctx, p, snap, cfg)
}

// MeshFor returns the smallest square mesh holding n clusters (the paper's
// Table 3 sizing rule).
func MeshFor(n int) Mesh { return hw.MeshFor(n) }

// Metrics (§3.3).
type (
	// Summary holds the five placement metrics (Eqs. 9–14).
	Summary = metrics.Summary
	// MetricOptions tunes congestion computation.
	MetricOptions = metrics.Options
	// CongestionMode selects how congestion grids are computed.
	CongestionMode = metrics.CongestionMode
)

// Congestion modes for MetricOptions. CongestionAuto, the zero value,
// computes Eq. 14's grid exactly up to 500 M bounding-box cells (Σ
// (dx+1)(dy+1) over all edges) and above that from every ⌈E/200 000⌉-th
// edge, rescaled; CongestionSkip leaves MaxCongestion zero.
const (
	CongestionAuto = metrics.CongestionAuto
	CongestionSkip = metrics.CongestionSkip
)

// Evaluate scores a placement on energy, latency and congestion. The
// placement must place exactly p's clusters, each on its own core of its
// mesh — LoadPlacement returns whatever the file held, possibly for another
// PCN — and opts.Congestion must be CongestionAuto or CongestionSkip, else
// Evaluate fails with an error wrapping ErrBadConfig.
func Evaluate(p *PCN, pl *Placement, cost CostModel, opts MetricOptions) (Summary, error) {
	if opts.Congestion != CongestionAuto && opts.Congestion != CongestionSkip {
		return Summary{}, fmt.Errorf("%w: unknown congestion mode %d", ErrBadConfig, opts.Congestion)
	}
	if len(pl.PosOf) != p.NumClusters {
		return Summary{}, fmt.Errorf("%w: placement covers %d clusters, PCN has %d", ErrBadConfig, len(pl.PosOf), p.NumClusters)
	}
	if err := pl.Validate(); err != nil {
		return Summary{}, fmt.Errorf("%w: %v", ErrBadConfig, err)
	}
	return metrics.Evaluate(p, pl, cost, opts), nil
}

// Baselines (§5.1.3).
type (
	// BaselineOptions configures a baseline run.
	BaselineOptions = baseline.Options
	// BaselineStats reports a baseline run.
	BaselineStats = baseline.Stats
)

// RandomPlacement is the paper's normalization baseline: InitialPlacement
// along the seeded random visit order curve.Random{Seed: opts.Seed}. On a
// PCN in topological order (every layer-spec net) cluster j lands on cell
// j of rand.New(rand.NewSource(opts.Seed)).Perm(mesh.Rows·mesh.Cols), in
// row-major indices. Budget and Cost are not read; Elapsed times the call.
func RandomPlacement(p *PCN, mesh Mesh, opts BaselineOptions) (*Placement, BaselineStats, error) {
	start := time.Now()
	pl, err := mapping.InitialPlacement(p, mesh, curve.Random{Seed: opts.Seed})
	if err != nil {
		return nil, BaselineStats{}, err
	}
	return pl, BaselineStats{Elapsed: time.Since(start)}, nil
}

// TrueNorthPlacement is the layer-by-layer heuristic of Sawada et al.
func TrueNorthPlacement(p *PCN, mesh Mesh, opts BaselineOptions) (*Placement, BaselineStats, error) {
	return baseline.TrueNorth(p, mesh, opts)
}

// DFSynthesizerPlacement is the iterative swap search of Song et al.
func DFSynthesizerPlacement(p *PCN, mesh Mesh, opts BaselineOptions) (*Placement, BaselineStats, error) {
	return baseline.DFSynthesizer(p, mesh, opts)
}

// PSOPlacement is the binarized particle swarm optimizer of SpiNeMap/Song.
func PSOPlacement(p *PCN, mesh Mesh, opts BaselineOptions) (*Placement, BaselineStats, error) {
	return baseline.PSO(p, mesh, opts)
}

// NoC simulation substrate.
type (
	// SimConfig tunes the spike-level NoC simulation.
	SimConfig = noc.Config
	// SimResult summarizes a simulation run.
	SimResult = noc.Result
	// SimStats breaks down a simulation's drop and detour accounting
	// (SimResult.Stats).
	SimStats = noc.Stats
)

// Simulate replays the PCN's traffic through the 2D-mesh NoC under the
// placement.
func Simulate(p *PCN, pl *Placement, cfg SimConfig) (SimResult, error) {
	return noc.Simulate(p, pl, cfg)
}

// SimulateContext is Simulate with cooperative cancellation: the cycle loop
// checks ctx periodically and returns the partial result with an error
// wrapping ErrCanceled once the context is done.
func SimulateContext(ctx context.Context, p *PCN, pl *Placement, cfg SimConfig) (SimResult, error) {
	return noc.SimulateContext(ctx, p, pl, cfg)
}

// Fault tolerance (hardware defect maps and graceful degradation).
type (
	// DefectMap marks dead cores and failed links of a mesh.
	DefectMap = hw.DefectMap
	// RemapStats reports an incremental post-failure repair.
	RemapStats = mapping.RemapStats
	// RowRemapStats reports a wholesale row-shift repair.
	RowRemapStats = mapping.RowRemapStats
	// Degradation summarizes how gracefully a placement degrades on a
	// defective mesh.
	Degradation = metrics.Degradation
)

// Typed sentinel errors shared across the pipeline; test with errors.Is.
var (
	// ErrCapacityExceeded reports a cluster that does not fit a core.
	ErrCapacityExceeded = place.ErrCapacityExceeded
	// ErrUnplaceable reports a workload that cannot be placed on the
	// (possibly defective) mesh.
	ErrUnplaceable = place.ErrUnplaceable
	// ErrCanceled reports a pipeline run stopped by its context.
	ErrCanceled = place.ErrCanceled
	// ErrLivelock reports a NoC simulation that stopped making progress.
	ErrLivelock = noc.ErrLivelock
	// ErrBadConfig reports an invalid configuration (NoC simulator or FD
	// fine-tuning), a resume whose config does not match its snapshot, or a
	// hand-built placement given to Finetune, Remap or RemapRows that is not
	// a bijection of the PCN's clusters onto mesh cells.
	ErrBadConfig = place.ErrBadConfig
)

// NewDefectMap returns an all-healthy defect map for the mesh.
func NewDefectMap(mesh Mesh) *DefectMap { return hw.NewDefectMap(mesh) }

// InjectUniform marks a uniformly random fraction of cores dead and of links
// failed, deterministically from the seed.
func InjectUniform(mesh Mesh, deadFrac, linkFrac float64, seed int64) *DefectMap {
	return hw.InjectUniform(mesh, deadFrac, linkFrac, seed)
}

// InjectClustered marks a dead fraction grown as contiguous blobs — the
// spatially-correlated defect pattern of fabrication faults.
func InjectClustered(mesh Mesh, deadFrac float64, blobs int, seed int64) *DefectMap {
	return hw.InjectClustered(mesh, deadFrac, blobs, seed)
}

// InjectLines kills whole rows and columns — the failure pattern of shared
// power or clock spines.
func InjectLines(mesh Mesh, rows, cols int, seed int64) *DefectMap {
	return hw.InjectLines(mesh, rows, cols, seed)
}

// ParseDefectSpec builds a defect map from a compact spec string such as
// "uniform:dead=0.05,links=0.02,seed=7" (see internal/hw for the grammar).
func ParseDefectSpec(mesh Mesh, spec string) (*DefectMap, error) {
	return hw.ParseDefectSpec(mesh, spec)
}

// SaveDefectMap writes a defect map as JSON.
func SaveDefectMap(w io.Writer, d *DefectMap) error { return hw.WriteDefectMap(w, d) }

// LoadDefectMap reads a defect map written by SaveDefectMap.
func LoadDefectMap(r io.Reader) (*DefectMap, error) { return hw.ReadDefectMap(r) }

// Remap repairs an existing placement after the defect map changed: only
// clusters on dead cores migrate, each to the nearest healthy free core.
// cons is unused.
func Remap(p *PCN, pl *Placement, d *DefectMap, cons Constraints, cost CostModel) (RemapStats, error) {
	return mapping.Remap(p, pl, d, cons, cost)
}

// RemapRows repairs a placement with wholesale row-shift redundancy: each
// failed row migrates onto a fully-free row (reserved via
// Constraints.SpareRows, or any row that happens to be empty) in one
// operation, falling back to per-cluster Remap migration when no spare
// accepts it. cons is unused.
func RemapRows(p *PCN, pl *Placement, d *DefectMap, cons Constraints, cost CostModel) (RowRemapStats, error) {
	return mapping.RemapRows(p, pl, d, cons, cost)
}

// EvaluateDegradation computes the structural degradation metrics of a
// placement on a defective mesh.
func EvaluateDegradation(p *PCN, pl *Placement, d *DefectMap) Degradation {
	return metrics.EvaluateDegradation(p, pl, d)
}

// Model zoo: the paper's Table 3 workloads.

// DNN65K is the 65 536-neuron synthetic fully-connected workload.
func DNN65K() *Net { return snn.DNN65K() }

// DNN16M is the 16.7 M-neuron synthetic fully-connected workload.
func DNN16M() *Net { return snn.DNN16M() }

// DNN268M is the 268 M-neuron synthetic fully-connected workload.
func DNN268M() *Net { return snn.DNN268M() }

// DNN4B is the 4-billion-neuron headline workload (1 M clusters).
func DNN4B() *Net { return snn.DNN4B() }

// CNN65K is the 65 536-neuron synthetic convolutional workload.
func CNN65K() *Net { return snn.CNN65K() }

// CNN16M is the 16.7 M-neuron synthetic convolutional workload.
func CNN16M() *Net { return snn.CNN16M() }

// CNN268M is the 268 M-neuron synthetic convolutional workload.
func CNN268M() *Net { return snn.CNN268M() }

// LeNetMNIST is LeNet-5 on MNIST.
func LeNetMNIST() *Net { return snn.LeNetMNIST() }

// LeNetImageNet is the scaled-up LeNet on ImageNet.
func LeNetImageNet() *Net { return snn.LeNetImageNet() }

// AlexNet is the AlexNet workload.
func AlexNet() *Net { return snn.AlexNet() }

// MobileNet is the MobileNet v1 workload.
func MobileNet() *Net { return snn.MobileNet() }

// InceptionV3 is the InceptionV3 workload.
func InceptionV3() *Net { return snn.InceptionV3() }

// ResNet is the ResNet-152 workload, the paper's largest realistic network.
func ResNet() *Net { return snn.ResNet() }

// SynthDNN builds a custom fully-connected layered workload.
func SynthDNN(name string, layers int, width int64) *Net { return snn.SynthDNN(name, layers, width) }

// SynthCNN builds a custom locally-connected layered workload.
func SynthCNN(name string, layers int, width, fanIn int64, window int) *Net {
	return snn.SynthCNN(name, layers, width, fanIn, window)
}

// Spike-rate profiles (w_S modeling).
type (
	// RateProfile assigns per-layer spike densities by dataflow depth.
	RateProfile = snn.RateProfile
)

// UniformRate fires every synapse at the given density.
func UniformRate(rate float64) RateProfile { return snn.UniformRate(rate) }

// DecayRate models depth-wise activity sparsification.
func DecayRate(initial, factor float64) RateProfile { return snn.DecayRate(initial, factor) }

// ApplyRates sets every layer's spike density from the profile.
func ApplyRates(n *Net, profile RateProfile) error { return snn.ApplyRates(n, profile) }

// Multicast tree-routing evaluation (extension beyond the paper's unicast
// model).
type (
	// MulticastSummary reports unicast vs tree-routed energy.
	MulticastSummary = metrics.MulticastSummary
)

// MulticastEnergy evaluates a placement under dimension-ordered multicast.
func MulticastEnergy(p *PCN, pl *Placement, cost CostModel) MulticastSummary {
	return metrics.MulticastEnergy(p, pl, cost)
}

// Caching. A content-addressed on-disk artifact store warm-starts the
// pipeline: set Config.Cache (or RunOptions.Cache) to an opened cache and
// repeated runs with identical inputs skip placement and fine-tuning
// (Cache.Evaluate likewise skips metric evaluation). Warm results are
// bit-identical to the cold run; corrupt or deleted entries silently
// degrade to a cold run.
type (
	// Cache is the on-disk artifact store (safe for concurrent use).
	Cache = cache.Cache
	// CacheConfig configures OpenCache (its root directory).
	CacheConfig = cache.Config
	// CacheStats is a snapshot of hit/miss/corruption counters.
	CacheStats = cache.Stats
	// ResultCache is the interface Config.Cache accepts; *Cache
	// implements it.
	ResultCache = mapping.ResultCache
)

// OpenCache opens (creating if needed) an artifact cache rooted at cfg.Dir.
func OpenCache(cfg CacheConfig) (*Cache, error) { return cache.New(cfg) }

// Persistence and export.

// SavePCN writes a PCN in the compact binary format.
func SavePCN(w io.Writer, p *PCN) error { return codec.WritePCN(w, p) }

// LoadPCN reads a PCN written by SavePCN.
func LoadPCN(r io.Reader) (*PCN, error) { return codec.ReadPCN(r) }

// SavePlacement writes a placement in the compact binary format.
func SavePlacement(w io.Writer, pl *Placement) error { return codec.WritePlacement(w, pl) }

// LoadPlacement reads a placement written by SavePlacement.
func LoadPlacement(r io.Reader) (*Placement, error) { return codec.ReadPlacement(r) }

// SaveSnapshot writes a fine-tuning snapshot in the versioned binary format,
// embedding its PCN when snap.PCN is non-nil.
func SaveSnapshot(w io.Writer, snap *FDSnapshot) error { return codec.WriteSnapshot(w, snap) }

// LoadSnapshot reads a snapshot written by SaveSnapshot and validates it.
func LoadSnapshot(r io.Reader) (*FDSnapshot, error) { return codec.ReadSnapshot(r) }

// ExportDOT writes the PCN as a Graphviz digraph (maxEdges 0 = 10 000).
func ExportDOT(w io.Writer, p *PCN, maxEdges int) error { return codec.WriteDOT(w, p, maxEdges) }

// Recurrent workloads.
type (
	// ReservoirConfig parameterizes the liquid-state-machine builder.
	ReservoirConfig = snn.ReservoirConfig
)

// Reservoir builds a recurrent reservoir-computing workload whose layer
// graph contains a cycle, exercising the cycle-tolerant topological sort.
func Reservoir(name string, cfg ReservoirConfig) (*Net, error) { return snn.Reservoir(name, cfg) }

// Observability. Every pipeline config (PartitionConfig, FDConfig, Config,
// MetricOptions, SimConfig, and expt's RunOptions) carries an optional
// *Observer that receives phase spans, hot-loop counters and throttled
// progress reports. Telemetry is observe-only: results are bit-identical
// with or without an observer, at any worker/shard count.
type (
	// Observer is the telemetry handle; nil disables telemetry and every
	// method on a nil Observer is a safe no-op.
	Observer = obs.Observer
	// ObserverConfig configures NewObserver (sink + progress callback).
	ObserverConfig = obs.Config
	// ObsEvent is one telemetry event delivered to a sink.
	ObsEvent = obs.Event
	// ObsSink consumes telemetry events (the future daemon plugs in here).
	ObsSink = obs.Sink
	// ObsProgress is one throttled progress report.
	ObsProgress = obs.Progress
	// TraceSink writes events as Chrome trace-event JSON (Perfetto).
	TraceSink = obs.TraceSink
	// TraceStats summarizes a validated trace file.
	TraceStats = obs.TraceStats
)

// NewObserver builds an observer from a sink and/or progress callback;
// returns nil (telemetry disabled) when the config carries neither.
func NewObserver(cfg ObserverConfig) *Observer { return obs.New(cfg) }

// NewTraceSink returns a sink writing Chrome trace-event JSON to w; its
// Close writes the closing bracket (the caller owns any underlying file).
func NewTraceSink(w io.Writer) *TraceSink { return obs.NewTraceSink(w) }

// ProgressRenderer returns a progress callback that renders a live
// single-line progress display (phase, fraction, ETA) to w — pass it as
// ObserverConfig.OnProgress with w = os.Stderr for CLI-style output.
func ProgressRenderer(w io.Writer) func(ObsProgress) { return obs.Renderer(w) }

// ValidateTrace checks a Chrome trace-event JSON stream written by
// TraceSink: known phases, per-track monotonic timestamps, and a balanced
// name-matched begin/end stack.
func ValidateTrace(r io.Reader) (TraceStats, error) { return obs.ValidateTrace(r) }
