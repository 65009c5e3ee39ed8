package cache

import (
	"crypto/sha256"
	"encoding/binary"
	"hash"
	"math"

	"snnmap/internal/curve"
	"snnmap/internal/hw"
	"snnmap/internal/mapping"
	"snnmap/internal/metrics"
	"snnmap/internal/pcn"
	"snnmap/internal/snn"
)

// keyVersion is folded into every key so any change to the canonical
// encoding (or to the semantics of a cached stage) invalidates old
// entries wholesale instead of misreading them.
const keyVersion = "snnmap-cache-v1"

// Key is a content-addressed stage key.
type Key [sha256.Size]byte

// hasher accumulates a canonical little-endian binary encoding into
// SHA-256. Every variable-length field is length-prefixed, every slice
// nil/non-nil distinction that matters carries a presence byte, so no
// two distinct inputs can produce the same byte stream.
//
// Slices are staged through a reusable scratch buffer and fed to the
// hash in large writes: keys cover whole CSR graphs (megabytes of
// edges), and a per-value Write call would dominate a warm lookup. The
// byte stream — and therefore every key — is identical either way.
type hasher struct {
	h       hash.Hash
	buf     [8]byte
	scratch []byte
}

// hasherChunk is the scratch staging size for slice hashing.
const hasherChunk = 1 << 16

func newHasher(stage string) *hasher {
	h := &hasher{h: sha256.New()}
	h.str(keyVersion)
	h.str(stage)
	return h
}

func (h *hasher) sum() Key {
	var k Key
	h.h.Sum(k[:0])
	return k
}

func (h *hasher) u64(v uint64) {
	binary.LittleEndian.PutUint64(h.buf[:], v)
	h.h.Write(h.buf[:])
}

func (h *hasher) i64(v int64)   { h.u64(uint64(v)) }
func (h *hasher) f64(v float64) { h.u64(math.Float64bits(v)) }
func (h *hasher) boolean(b bool) {
	if b {
		h.u64(1)
	} else {
		h.u64(0)
	}
}

func (h *hasher) str(s string) {
	h.u64(uint64(len(s)))
	h.h.Write([]byte(s))
}

func (h *hasher) chunk() []byte {
	if h.scratch == nil {
		h.scratch = make([]byte, hasherChunk)
	}
	return h.scratch
}

func (h *hasher) i32s(vs []int32) {
	h.u64(uint64(len(vs)))
	buf, n := h.chunk(), 0
	for _, v := range vs {
		binary.LittleEndian.PutUint32(buf[n:], uint32(v))
		if n += 4; n+4 > len(buf) {
			h.h.Write(buf[:n])
			n = 0
		}
	}
	h.h.Write(buf[:n])
}

func (h *hasher) i64s(vs []int64) {
	h.u64(uint64(len(vs)))
	buf, n := h.chunk(), 0
	for _, v := range vs {
		binary.LittleEndian.PutUint64(buf[n:], uint64(v))
		if n += 8; n+8 > len(buf) {
			h.h.Write(buf[:n])
			n = 0
		}
	}
	h.h.Write(buf[:n])
}

func (h *hasher) f64s(vs []float64) {
	h.u64(uint64(len(vs)))
	buf, n := h.chunk(), 0
	for _, v := range vs {
		binary.LittleEndian.PutUint64(buf[n:], math.Float64bits(v))
		if n += 8; n+8 > len(buf) {
			h.h.Write(buf[:n])
			n = 0
		}
	}
	h.h.Write(buf[:n])
}

// pcnContent hashes everything that identifies a PCN as a computation
// input. The Name is deliberately excluded: two identically structured
// cluster graphs are the same workload whatever they are called.
func (h *hasher) pcnContent(p *pcn.PCN) {
	h.i64(int64(p.NumClusters))
	h.i32s(p.Neurons)
	h.i64s(p.Synapses)
	h.i32s(p.Layer)
	h.i64s(p.OutOff)
	h.i32s(p.OutTo)
	h.f64s(p.OutW)
	h.f64(p.InternalTraffic)
}

// netContent hashes a layer-spec network.
func (h *hasher) netContent(n *snn.Net) {
	h.i64(int64(len(n.Layers)))
	for _, l := range n.Layers {
		h.str(l.Name)
		h.i64(l.Neurons)
		h.f64(l.Rate)
	}
	h.i64(int64(len(n.Conns)))
	for _, c := range n.Conns {
		h.i64(int64(c.From))
		h.i64(int64(c.To))
		h.i64(c.FanIn)
		h.u64(uint64(c.Pattern))
		h.i64(int64(c.Window))
	}
}

func (h *hasher) mesh(m hw.Mesh) {
	h.i64(int64(m.Rows))
	h.i64(int64(m.Cols))
}

func (h *hasher) constraints(c hw.Constraints) {
	h.i64(int64(c.NeuronsPerCore))
	h.i64(int64(c.SynapsesPerCore))
	h.i64(int64(c.SpareRows))
}

func (h *hasher) costModel(c hw.CostModel) {
	h.f64(c.RouterEnergy)
	h.f64(c.WireEnergy)
	h.f64(c.RouterLatency)
	h.f64(c.WireLatency)
}

// defects hashes a defect map through its deterministic JSON encoding
// (sorted cores and links). Nil hashes as absent.
func (h *hasher) defects(d *hw.DefectMap) {
	if d == nil {
		h.boolean(false)
		return
	}
	h.boolean(true)
	if err := hw.WriteDefectMap(h.h, d); err != nil {
		// WriteDefectMap over a hash never fails for a valid map; fold the
		// error text in so a failure cannot silently alias another key.
		h.str("defect-encode-error: " + err.Error())
	}
}

// fdPhase hashes the fields of one (resolved) FD phase that determine
// its output. Workers, Obs and Checkpoint are excluded — they
// are bit-identity-preserving by contract (see FDConfig) — and Budget
// never reaches here because budgeted configs bypass the cache.
func (h *hasher) fdPhase(cfg *mapping.FDConfig, topDefects *hw.DefectMap, topCons hw.Constraints) {
	if cfg == nil {
		h.boolean(false)
		return
	}
	h.boolean(true)
	r := cfg.Resolved()
	h.str(r.Potential.Name())
	h.f64(r.Potential.AtUnit())
	h.f64(r.Potential.AtZero())
	h.f64(r.Lambda)
	h.f64(r.MinGain)
	h.i64(int64(r.MaxIterations))
	// Effective per-phase fault model, resolved exactly as MapContext does:
	// a phase with its own Defects keeps its own Constraints, otherwise it
	// inherits the pipeline's.
	if r.Defects != nil {
		h.defects(r.Defects)
		h.constraints(r.Constraints)
	} else {
		h.defects(topDefects)
		h.constraints(topCons)
	}
}

func (h *hasher) partitionConfig(cfg *pcn.PartitionConfig) {
	h.constraints(cfg.Constraints)
	h.boolean(cfg.EnforceSynapses)
	h.boolean(cfg.SplitAtLayers)
	// The absent-Multilevel presence byte: Expand rejects a multilevel
	// config before keying, so the byte is constant, and writing it keeps
	// every net key at its earlier hex.
	h.boolean(false)
}

// curveName resolves the mapping config's curve the way MapContext does
// (nil means Hilbert).
func curveName(cfg *mapping.Config) string {
	if cfg.Curve == nil {
		return curve.Hilbert{}.Name()
	}
	return cfg.Curve.Name()
}

// initialKey is the stage key for the curve-walk initial placement:
// PCN content, mesh, curve, and the fault model the walk avoids.
func initialKey(pk Key, mesh hw.Mesh, cfg *mapping.Config) Key {
	h := newHasher("initial")
	h.h.Write(pk[:])
	h.mesh(mesh)
	h.str(curveName(cfg))
	h.defects(cfg.Defects)
	h.constraints(cfg.Constraints)
	return h.sum()
}

// resultKey is the stage key for the finished mapping pipeline: the
// initial-placement material plus both FD phases.
func resultKey(pk Key, mesh hw.Mesh, cfg *mapping.Config) Key {
	h := newHasher("result")
	h.h.Write(pk[:])
	h.mesh(mesh)
	h.str(curveName(cfg))
	h.defects(cfg.Defects)
	h.constraints(cfg.Constraints)
	h.fdPhase(cfg.FD, cfg.Defects, cfg.Constraints)
	h.fdPhase(cfg.Polish, cfg.Defects, cfg.Constraints)
	return h.sum()
}

// partitionNetKey is the stage key for Expand over a layer-spec net. The
// stage tag carries a revision: /2 is the arrival-order summation of parallel
// edges (pcn.mergeRow). An entry under the unrevised tag was summed in
// quicksort-pivot order and differs from a cold run in the last ulp wherever
// a net has three or more Conns between one layer pair, so it must be a
// miss, not a warm hit.
func partitionNetKey(n *snn.Net, cfg *pcn.PartitionConfig) Key {
	h := newHasher("partition-net/2")
	h.netContent(n)
	h.partitionConfig(cfg)
	return h.sum()
}

// metricsKey is the stage key for Evaluate: PCN, placement, cost model
// and the options that change Summary values (Workers and Obs are
// bit-identity-preserving and excluded). /2 since congestion is propagated
// per target instead of stamped per edge: MaxCongestion can move in its last
// bits for non-dyadic weights, so entries written by stamping must not be
// served.
func metricsKey(pk Key, plPosOf []int32, mesh hw.Mesh, cost hw.CostModel, opts metrics.Options) Key {
	opts = opts.Resolved()
	h := newHasher("metrics/2")
	h.h.Write(pk[:])
	h.mesh(mesh)
	h.i32s(plPosOf)
	h.costModel(cost)
	h.i64(int64(opts.Congestion))
	h.i64(int64(opts.SampleEdges))
	h.i64(opts.ExactWorkLimit)
	return h.sum()
}
