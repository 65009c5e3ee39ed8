// Package cache is a content-addressed, on-disk artifact store that
// warm-starts the mapping pipeline. Each expensive stage — partition,
// initial placement, FD fine-tuning, metrics evaluation — is keyed by a
// SHA-256 over a canonical binary encoding of the inputs that determine
// its output (and nothing else: knobs that are bit-identity-preserving
// by contract, like Workers and Obs, are excluded). Lookups are staged:
// a full-result hit skips partition, placement and FD entirely; an
// initial-placement hit skips the curve walk; a partition hit skips the
// layer-spec expansion.
//
// Invariant: a warm hit returns exactly the bytes the cold run produced
// (placements, FD statistics, summaries bit-identical; only the caller's
// wall clock differs). Corrupt, truncated or misfiled entries degrade to
// a miss — the cache never turns a bad disk into an error.
//
// Entries are immutable and content-addressed, so there is no eviction
// policy: deleting any file or subtree (even mid-run) is always safe and
// simply forgets the artifact.
package cache

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"snnmap/internal/codec"
	"snnmap/internal/hw"
	"snnmap/internal/mapping"
	"snnmap/internal/metrics"
	"snnmap/internal/pcn"
	"snnmap/internal/place"
	"snnmap/internal/snn"
)

// Stage names double as the on-disk directory layout:
// <dir>/<stage>/<hex[:2]>/<hex>.
const (
	stagePartition = "partition"
	stageInitial   = "initial"
	stageResult    = "result"
	stageMetrics   = "metrics"
)

// Config configures a Cache.
type Config struct {
	// Dir is the cache root directory (created if absent).
	Dir string
	// Cost is the cost model used when synthesizing defect-delta results
	// through mapping.Remap. The zero value means hw.DefaultCostModel().
	Cost hw.CostModel
	// RemapDelta opts in to the incremental fault path: when an exact
	// result lookup misses but the same pipeline with a pristine mesh is
	// cached, the cached placement is repaired with mapping.Remap instead
	// of replaying a cold run. The synthesized result is marked Remapped
	// and never stored — a cold run with those defects would differ, and
	// the warm-equals-cold invariant only ever serves stored cold runs.
	RemapDelta bool
}

// Cache is the on-disk store. It is safe for concurrent use; concurrent
// writers of the same entry race benignly (last atomic rename wins,
// every rename holds identical bytes).
type Cache struct {
	st         store
	cost       hw.CostModel
	remapDelta bool

	// Single-entry content-hash memo: pipelines hash the same *pcn.PCN for
	// the initial, result and metrics stages of one run, so remember the
	// last hashed pointer. Content-keyed correctness is unaffected — a
	// different pointer simply rehashes — but, like everywhere else in
	// this module, PCNs are treated as immutable once built.
	mu      sync.Mutex
	lastPCN *pcn.PCN
	lastKey Key

	n counters
}

type counters struct {
	partitionHits, partitionMisses atomic.Int64
	initialHits, initialMisses     atomic.Int64
	resultHits, resultMisses       atomic.Int64
	metricsHits, metricsMisses     atomic.Int64
	remaps                         atomic.Int64
	corrupt                        atomic.Int64
	storeErrors                    atomic.Int64
}

// Stats is a point-in-time snapshot of cache activity.
type Stats struct {
	PartitionHits, PartitionMisses int64
	InitialHits, InitialMisses     int64
	ResultHits, ResultMisses       int64
	MetricsHits, MetricsMisses     int64
	// Remaps counts defect-delta hits synthesized through mapping.Remap.
	Remaps int64
	// Corrupt counts entries that existed but failed verification or
	// decoding (each degraded to a miss).
	Corrupt int64
	// StoreErrors counts failed writes (each a no-op for correctness).
	StoreErrors int64
}

// New opens (creating if needed) a cache rooted at cfg.Dir.
func New(cfg Config) (*Cache, error) {
	if cfg.Dir == "" {
		return nil, errors.New("cache: empty directory")
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, err
	}
	if cfg.Cost == (hw.CostModel{}) {
		cfg.Cost = hw.DefaultCostModel()
	}
	return &Cache{st: store{dir: cfg.Dir}, cost: cfg.Cost, remapDelta: cfg.RemapDelta}, nil
}

// Stats returns a snapshot of the hit/miss counters.
func (c *Cache) Stats() Stats {
	return Stats{
		PartitionHits: c.n.partitionHits.Load(), PartitionMisses: c.n.partitionMisses.Load(),
		InitialHits: c.n.initialHits.Load(), InitialMisses: c.n.initialMisses.Load(),
		ResultHits: c.n.resultHits.Load(), ResultMisses: c.n.resultMisses.Load(),
		MetricsHits: c.n.metricsHits.Load(), MetricsMisses: c.n.metricsMisses.Load(),
		Remaps:  c.n.remaps.Load(),
		Corrupt: c.n.corrupt.Load(), StoreErrors: c.n.storeErrors.Load(),
	}
}

func (c *Cache) pcnKey(p *pcn.PCN) Key {
	c.mu.Lock()
	if c.lastPCN == p {
		k := c.lastKey
		c.mu.Unlock()
		return k
	}
	c.mu.Unlock()
	h := newHasher("pcn")
	h.pcnContent(p)
	k := h.sum()
	c.mu.Lock()
	c.lastPCN, c.lastKey = p, k
	c.mu.Unlock()
	return k
}

// load fetches and classifies one entry: (body, true) on a verified hit;
// a corrupt or misfiled entry counts once and reads as a miss.
func (c *Cache) load(stage string, k Key) ([]byte, bool) {
	body, err := c.st.get(stage, k)
	if err == nil {
		return body, true
	}
	if !errors.Is(err, os.ErrNotExist) {
		c.n.corrupt.Add(1)
	}
	return nil, false
}

func (c *Cache) put(stage string, k Key, payload func(io.Writer) error) {
	if err := c.st.put(stage, k, payload); err != nil {
		c.n.storeErrors.Add(1)
	}
}

// --- mapping.ResultCache ---

var _ mapping.ResultCache = (*Cache)(nil)

// LoadResult implements mapping.ResultCache: the finished pipeline
// output for these exact inputs, or — with RemapDelta — a pristine-mesh
// base result incrementally repaired for cfg.Defects.
func (c *Cache) LoadResult(p *pcn.PCN, mesh hw.Mesh, cfg *mapping.Config) (mapping.CachedResult, bool) {
	pk := c.pcnKey(p)
	if body, ok := c.load(stageResult, resultKey(pk, mesh, cfg)); ok {
		if cr, err := decodeResult(body); err == nil {
			c.n.resultHits.Add(1)
			return cr, true
		}
		c.n.corrupt.Add(1)
	}
	c.n.resultMisses.Add(1)
	if c.remapDelta && cfg.Defects != nil {
		base := *cfg
		base.Defects = nil
		if body, ok := c.load(stageResult, resultKey(pk, mesh, &base)); ok {
			cr, err := decodeResult(body)
			if err != nil {
				c.n.corrupt.Add(1)
				return mapping.CachedResult{}, false
			}
			rs, rerr := mapping.Remap(p, cr.Placement, cfg.Defects, cfg.Constraints, c.cost)
			if rerr == nil {
				c.n.remaps.Add(1)
				cr.Remapped = true
				cr.RemapStats = rs
				return cr, true
			}
		}
	}
	return mapping.CachedResult{}, false
}

// StoreResult implements mapping.ResultCache.
func (c *Cache) StoreResult(p *pcn.PCN, mesh hw.Mesh, cfg *mapping.Config, res *mapping.Result) {
	c.put(stageResult, resultKey(c.pcnKey(p), mesh, cfg), func(w io.Writer) error {
		return encodeResult(w, res)
	})
}

// LoadInitial implements mapping.ResultCache.
func (c *Cache) LoadInitial(p *pcn.PCN, mesh hw.Mesh, cfg *mapping.Config) (*place.Placement, bool) {
	body, ok := c.load(stageInitial, initialKey(c.pcnKey(p), mesh, cfg))
	if ok {
		if pl, err := codec.ReadPlacement(bytes.NewReader(body)); err == nil {
			c.n.initialHits.Add(1)
			return pl, true
		}
		c.n.corrupt.Add(1)
	}
	c.n.initialMisses.Add(1)
	return nil, false
}

// StoreInitial implements mapping.ResultCache.
func (c *Cache) StoreInitial(p *pcn.PCN, mesh hw.Mesh, cfg *mapping.Config, pl *place.Placement) {
	c.put(stageInitial, initialKey(c.pcnKey(p), mesh, cfg), func(w io.Writer) error {
		return codec.WritePlacement(w, pl)
	})
}

// --- partition stage ---

// Expand is pcn.Expand behind the cache: a hit returns the stored cluster
// graph without expanding the net; a miss expands it cold and stores the
// result. The boolean reports the hit. A multilevel config is rejected
// before the lookup, exactly as pcn.Expand rejects it, so no stored entry
// can serve what a cold run refuses.
func (c *Cache) Expand(n *snn.Net, cfg pcn.PartitionConfig) (*pcn.PCN, bool, error) {
	if cfg.Multilevel != nil {
		_, err := pcn.Expand(n, cfg)
		return nil, false, err
	}
	k := partitionNetKey(n, &cfg)
	if body, ok := c.load(stagePartition, k); ok {
		if p, err := codec.ReadPCN(bytes.NewReader(body)); err == nil {
			c.n.partitionHits.Add(1)
			return p, true, nil
		}
		c.n.corrupt.Add(1)
	}
	c.n.partitionMisses.Add(1)
	p, err := pcn.Expand(n, cfg)
	if err != nil {
		return nil, false, err
	}
	c.put(stagePartition, k, func(w io.Writer) error { return codec.WritePCN(w, p) })
	return p, false, nil
}

// --- metrics stage ---

// Evaluate is metrics.Evaluate behind the cache. The key covers the PCN,
// placement, cost model and every option that changes Summary values;
// Workers and Obs are bit-identity-preserving and excluded, so any worker
// count can serve any other's entry.
func (c *Cache) Evaluate(p *pcn.PCN, pl *place.Placement, cost hw.CostModel, opts metrics.Options) (metrics.Summary, bool) {
	k := metricsKey(c.pcnKey(p), pl.PosOf, pl.Mesh, cost, opts)
	if body, ok := c.load(stageMetrics, k); ok {
		if s, err := decodeSummary(body); err == nil {
			c.n.metricsHits.Add(1)
			return s, true
		}
		c.n.corrupt.Add(1)
	}
	c.n.metricsMisses.Add(1)
	s := metrics.Evaluate(p, pl, cost, opts)
	c.put(stageMetrics, k, func(w io.Writer) error { return encodeSummary(w, s) })
	return s, false
}

// --- payload encodings ---

// writeSection frames enc's output with a length prefix so decoders can
// split the body without trusting the inner codec to stop at the
// boundary (codec readers buffer and may over-read).
func writeSection(w io.Writer, enc func(io.Writer) error) error {
	var buf bytes.Buffer
	if err := enc(&buf); err != nil {
		return err
	}
	var lenBuf [8]byte
	binary.LittleEndian.PutUint64(lenBuf[:], uint64(buf.Len()))
	if _, err := w.Write(lenBuf[:]); err != nil {
		return err
	}
	_, err := w.Write(buf.Bytes())
	return err
}

func readSection(b []byte) (section, rest []byte, err error) {
	if len(b) < 8 {
		return nil, nil, errCorrupt
	}
	n := binary.LittleEndian.Uint64(b[:8])
	if n > maxEntryPayload || uint64(len(b)-8) < n {
		return nil, nil, errCorrupt
	}
	return b[8 : 8+n], b[8+n:], nil
}

// fdStatsLen is the fixed encoding size of one FDStats.
const fdStatsLen = 7 * 8

func writeFDStats(w io.Writer, s *mapping.FDStats) error {
	var buf [fdStatsLen]byte
	binary.LittleEndian.PutUint64(buf[0:], uint64(s.Iterations))
	binary.LittleEndian.PutUint64(buf[8:], uint64(s.Swaps))
	binary.LittleEndian.PutUint64(buf[16:], uint64(s.TensionChecks))
	binary.LittleEndian.PutUint64(buf[24:], math.Float64bits(s.InitialEnergy))
	binary.LittleEndian.PutUint64(buf[32:], math.Float64bits(s.FinalEnergy))
	var conv uint64
	if s.Converged {
		conv = 1
	}
	binary.LittleEndian.PutUint64(buf[40:], conv)
	binary.LittleEndian.PutUint64(buf[48:], uint64(s.Elapsed))
	_, err := w.Write(buf[:])
	return err
}

func readFDStats(b []byte) (mapping.FDStats, []byte, error) {
	if len(b) < fdStatsLen {
		return mapping.FDStats{}, nil, errCorrupt
	}
	var s mapping.FDStats
	s.Iterations = int(binary.LittleEndian.Uint64(b[0:]))
	s.Swaps = int64(binary.LittleEndian.Uint64(b[8:]))
	s.TensionChecks = int64(binary.LittleEndian.Uint64(b[16:]))
	s.InitialEnergy = math.Float64frombits(binary.LittleEndian.Uint64(b[24:]))
	s.FinalEnergy = math.Float64frombits(binary.LittleEndian.Uint64(b[32:]))
	switch binary.LittleEndian.Uint64(b[40:]) {
	case 0:
	case 1:
		s.Converged = true
	default:
		return mapping.FDStats{}, nil, errCorrupt
	}
	s.Elapsed = time.Duration(binary.LittleEndian.Uint64(b[48:]))
	return s, b[fdStatsLen:], nil
}

func encodeResult(w io.Writer, res *mapping.Result) error {
	if err := writeSection(w, func(sw io.Writer) error {
		return codec.WritePlacement(sw, res.Placement)
	}); err != nil {
		return err
	}
	if err := writeFDStats(w, &res.FD); err != nil {
		return err
	}
	return writeFDStats(w, &res.Polish)
}

func decodeResult(body []byte) (mapping.CachedResult, error) {
	sec, rest, err := readSection(body)
	if err != nil {
		return mapping.CachedResult{}, err
	}
	pl, err := codec.ReadPlacement(bytes.NewReader(sec))
	if err != nil {
		return mapping.CachedResult{}, err
	}
	fd, rest, err := readFDStats(rest)
	if err != nil {
		return mapping.CachedResult{}, err
	}
	polish, rest, err := readFDStats(rest)
	if err != nil {
		return mapping.CachedResult{}, err
	}
	if len(rest) != 0 {
		return mapping.CachedResult{}, errCorrupt
	}
	return mapping.CachedResult{Placement: pl, FD: fd, Polish: polish}, nil
}

const summaryLen = 5 * 8

func encodeSummary(w io.Writer, s metrics.Summary) error {
	var buf [summaryLen]byte
	for i, v := range [...]float64{s.Energy, s.AvgLatency, s.MaxLatency, s.AvgCongestion, s.MaxCongestion} {
		binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(v))
	}
	_, err := w.Write(buf[:])
	return err
}

func decodeSummary(body []byte) (metrics.Summary, error) {
	if len(body) != summaryLen {
		return metrics.Summary{}, errCorrupt
	}
	var vs [5]float64
	for i := range vs {
		vs[i] = math.Float64frombits(binary.LittleEndian.Uint64(body[8*i:]))
	}
	return metrics.Summary{
		Energy: vs[0], AvgLatency: vs[1], MaxLatency: vs[2],
		AvgCongestion: vs[3], MaxCongestion: vs[4],
	}, nil
}
