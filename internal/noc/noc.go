// Package noc is the hardware substrate behind the paper's evaluation: a
// spike-level simulator of the 2D-mesh network-on-chip of §3.1. Each core's
// router has output queues toward its four neighbors plus a local delivery
// port; spikes are single-flit messages routed dimension-ordered (X first,
// then Y) with one flit per port per cycle.
//
// The simulator cross-validates the closed-form metrics of §3.3: with
// uncontended traffic a spike crossing h links is serviced by h+1 routers,
// so simulated traversal counts reproduce Eq. 9's energy and Eq. 10's
// latency exactly, while contention exposes the queueing effects that the
// congestion metrics (Eqs. 12-14) summarize.
//
// A hw.DefectMap turns the pristine mesh into a faulty one: spikes never
// enter dead routers, and failed links either drop traffic (modeling a chip
// without adaptive routing) or, with FaultAware routing, force a detour —
// the secondary dimension order first, then a bounded misroute. Runs on a
// faulty mesh account undeliverable spikes instead of failing, and a
// progress watchdog converts a livelocked or deadlocked simulation into a
// typed ErrLivelock instead of a hang.
//
// Simulate/SimulateContext run one cycle loop (simState.run: limits, the
// watchdog, injection, termination, idle fast-forward) over one of two
// engines, and each hop is decided in one place, simState.hop; exhausted
// trains are compacted out and each train's first hop is resolved once.
//
//   - Unbounded queues (QueueCap == 0, every CLI and experiment run) take the
//     calendar engine (calendar.go). A port then releases one flit per cycle
//     whenever it holds one, so a flit's departure cycle is fixed when it is
//     pushed; the engine files each flit under that cycle and streams one
//     cycle's flits at a time, keeping no queues at all.
//   - Bounded queues take the queue engine (queues.go): per-port ring
//     queues with an occupancy bitmap kept exact at the queue push and pop
//     sites, so a cycle's scan visits only the non-empty ports (in ascending
//     router order, the bitmap's bit order).
//
// Both engines run on the calling goroutine. The original per-cycle scan of
// every router survives only in this package's tests, as the equivalence
// oracle both engines must match bit for bit.
package noc

import (
	"context"
	"errors"
	"fmt"
	"math"

	"snnmap/internal/geom"
	"snnmap/internal/hw"
	"snnmap/internal/obs"
	"snnmap/internal/pcn"
	"snnmap/internal/place"
)

// Sentinel errors raised by the simulator.
var (
	// ErrBadConfig reports an invalid Config (see Config.Validate). It is
	// the shared place.ErrBadConfig sentinel, so errors.Is matches
	// configuration errors from any pipeline package.
	ErrBadConfig = place.ErrBadConfig
	// ErrLivelock reports that the simulation stopped making forward
	// progress (or exceeded MaxCycles) with spikes still in flight.
	ErrLivelock = errors.New("noc: livelock")
	// ErrCanceled reports that the caller's context canceled the run
	// (shared with the mapping pipeline via internal/place).
	ErrCanceled = place.ErrCanceled
)

// Routing selects the simulator's route computation.
type Routing uint8

const (
	// RouteXY is dimension-ordered column-first routing (the default, and
	// the model behind Algorithm 4's expectation).
	RouteXY Routing = iota
	// RouteYX is dimension-ordered row-first routing.
	RouteYX
	// RouteO1Turn picks XY or YX per spike from a deterministic hash of
	// its endpoints, balancing load across the two dimension orders. It
	// needs unbounded buffers (a real O1TURN router uses two virtual
	// channels to stay deadlock-free), so it rejects QueueCap > 0.
	RouteO1Turn
)

// String implements fmt.Stringer.
func (r Routing) String() string {
	switch r {
	case RouteXY:
		return "xy"
	case RouteYX:
		return "yx"
	case RouteO1Turn:
		return "o1turn"
	}
	return fmt.Sprintf("Routing(%d)", uint8(r))
}

// Config tunes a simulation run.
type Config struct {
	// Cost converts traversal counts into energy and ideal latency; the
	// zero value means hw.DefaultCostModel().
	Cost hw.CostModel
	// Routing selects the route computation (default RouteXY).
	Routing Routing
	// QueueCap bounds every output queue; a full downstream queue
	// backpressures the upstream router (credit-based store-and-forward).
	// Dimension-ordered routing keeps the channel dependency graph acyclic,
	// so bounded runs stay deadlock-free; fault-aware detours can break
	// that guarantee, in which case the progress watchdog reports
	// ErrLivelock instead of hanging. 0 means unbounded, and selects the
	// calendar engine; bounded runs take the queue engine.
	QueueCap int
	// SpikesPerUnit scales PCN edge weights into injected spike counts
	// (each edge injects max(1, round(w·SpikesPerUnit)) spikes). Zero
	// means 1; NaN and ±Inf are rejected.
	SpikesPerUnit float64
	// InjectionInterval is the gap in cycles between consecutive spikes of
	// the same edge (1 = back-to-back). Zero means 1.
	InjectionInterval int
	// MaxCycles aborts runaway simulations with an error wrapping
	// ErrLivelock. Zero means 10_000_000.
	MaxCycles int
	// MaxSpikes caps the total injected spike count to keep memory
	// bounded. Zero means 5_000_000.
	MaxSpikes int64
	// Defects marks dead cores and failed links. Spikes sourced at or
	// destined to a dead core are dropped at injection; failed links are
	// never traversed.
	Defects *hw.DefectMap
	// FaultAware enables detour routing around failed links: the
	// secondary productive dimension first, then a misroute bounded by
	// MaxDetourHops. When false, a spike whose dimension-ordered next hop
	// is failed is dropped at that router.
	FaultAware bool
	// MaxDetourHops bounds the total hops of a detoured spike; past it the
	// spike is dropped as undeliverable (it may be circling an unreachable
	// destination). Zero means 4·(rows+cols).
	MaxDetourHops int
	// WatchdogCycles is the progress watchdog: if no spike is injected,
	// delivered or dropped for this many cycles while spikes are in
	// flight, the run fails with ErrLivelock. Zero means 1_000_000; it is
	// clamped to at least twice the injection interval.
	WatchdogCycles int
	// Shards is accepted and ignored: both engines run on the calling
	// goroutine. (Splitting bounded runs into row strips with a worker
	// each measured slower, since every move must still be applied in one
	// global order.) It must not be negative or exceed the mesh's row
	// count; ClampShards turns any request into a count that validates.
	Shards int
	// Obs receives a run span, throttled progress, and one noc.shard
	// counter sample (flits, hops, drops, detours, stalls, max_queue)
	// after the run; nil disables telemetry.
	// Observe-only: the simulation and its Result are bit-identical with or
	// without it. Only the engines emit; the test-only reference scan stays
	// the pristine oracle.
	Obs *obs.Observer
}

func (c Config) withDefaults() Config {
	if c.Cost == (hw.CostModel{}) {
		c.Cost = hw.DefaultCostModel()
	}
	if c.SpikesPerUnit <= 0 {
		c.SpikesPerUnit = 1
	}
	if c.InjectionInterval <= 0 {
		c.InjectionInterval = 1
	}
	if c.MaxCycles <= 0 {
		c.MaxCycles = 10_000_000
	}
	if c.MaxSpikes <= 0 {
		c.MaxSpikes = 5_000_000
	}
	if c.WatchdogCycles <= 0 {
		c.WatchdogCycles = 1_000_000
	}
	if c.WatchdogCycles < 2*c.InjectionInterval {
		c.WatchdogCycles = 2 * c.InjectionInterval
	}
	return c
}

// ClampShards bounds a requested shard count to what Config.Shards accepts
// on a mesh with rows rows: at least 1 and at most rows. Callers use it to
// turn a machine-wide default like GOMAXPROCS into a valid Config.Shards.
func ClampShards(n, rows int) int {
	if n < 1 {
		return 1
	}
	if n > rows {
		return rows
	}
	return n
}

// Validate checks the configuration up front, before any simulation state is
// built, returning an error wrapping ErrBadConfig on the first problem.
func (c Config) Validate() error {
	if c.Routing > RouteO1Turn {
		return fmt.Errorf("%w: unknown routing %d", ErrBadConfig, c.Routing)
	}
	if c.Routing == RouteO1Turn && c.QueueCap > 0 {
		return fmt.Errorf("%w: O1Turn routing requires unbounded queues (it needs virtual channels to stay deadlock-free); set QueueCap to 0", ErrBadConfig)
	}
	if c.QueueCap < 0 {
		return fmt.Errorf("%w: negative QueueCap %d", ErrBadConfig, c.QueueCap)
	}
	if !(c.SpikesPerUnit >= 0) || math.IsInf(c.SpikesPerUnit, 1) {
		return fmt.Errorf("%w: SpikesPerUnit %g, want a finite value ≥ 0", ErrBadConfig, c.SpikesPerUnit)
	}
	for _, v := range [...]struct {
		name string
		val  int
	}{
		{"InjectionInterval", c.InjectionInterval},
		{"MaxCycles", c.MaxCycles},
		{"MaxDetourHops", c.MaxDetourHops},
		{"WatchdogCycles", c.WatchdogCycles},
		{"Shards", c.Shards},
	} {
		if v.val < 0 {
			return fmt.Errorf("%w: negative %s %d", ErrBadConfig, v.name, v.val)
		}
	}
	if c.MaxSpikes < 0 {
		return fmt.Errorf("%w: negative MaxSpikes %d", ErrBadConfig, c.MaxSpikes)
	}
	// Spike counts, cycle stamps and hop counts are stored as int32
	// (train.count, flit.injected, flit.hops against maxHops); a larger
	// limit would let them wrap silently.
	for _, v := range [...]struct {
		name string
		val  int64
	}{
		{"MaxSpikes", c.MaxSpikes},
		{"MaxCycles", int64(c.MaxCycles)},
		{"WatchdogCycles", int64(c.WatchdogCycles)},
		{"MaxDetourHops", int64(c.MaxDetourHops)},
	} {
		if v.val > math.MaxInt32 {
			return fmt.Errorf("%w: %s %d exceeds %d", ErrBadConfig, v.name, v.val, math.MaxInt32)
		}
	}
	return nil
}

// Result summarizes a simulation.
type Result struct {
	// Injected, Delivered and Dropped are spike counts; a completed run
	// has Injected == Delivered + Dropped (Dropped is nonzero only on a
	// faulty mesh).
	Injected, Delivered, Dropped int64
	// Cycles is the simulated cycle count until the network drained.
	Cycles int
	// RouterTraversals counts service events per router (the simulated
	// analogue of Eq. 13's congestion), row-major over the mesh.
	RouterTraversals []int64
	// WireTraversals counts link crossings in total.
	WireTraversals int64
	// Energy is EN_r·router traversals + EN_w·wire traversals — the
	// simulated M_ec.
	Energy float64
	// AvgLatencyCycles and MaxLatencyCycles measure injection-to-delivery
	// time, including queueing (the ideal, uncontended value for a spike
	// crossing h links is h+1 cycles).
	AvgLatencyCycles float64
	MaxLatencyCycles int
	// AvgHops is the mean link count per delivered spike.
	AvgHops float64
	// MaxQueueLen is the peak occupancy of any output queue.
	MaxQueueLen int
	// Stalls counts cycles×flits blocked by a full downstream queue
	// (nonzero only with QueueCap > 0).
	Stalls int64
	// InjectionStalls counts injections deferred by a full source queue.
	InjectionStalls int64
	// Stats breaks the fault accounting down (previously only reachable
	// through metrics.Degradation). All three drivers compute it at the
	// same decision sites, so it is part of the bit-identity contract.
	Stats Stats
}

// Stats is the per-run drop/detour breakdown on a Result.
type Stats struct {
	// SetupDrops counts spikes dropped while building the injection
	// schedule: an endpoint was dead, or source and destination sat in
	// mesh regions disconnected by faults. These spikes never enter the
	// network.
	SetupDrops int64
	// NetworkDrops counts spikes dropped in flight: a failed
	// dimension-ordered next hop without FaultAware routing, no usable
	// port, an exhausted detour budget, or the in-flight age cap. Filled
	// by finish(), so it is zero on a run that ended in an error. Always
	// SetupDrops + NetworkDrops == Dropped on a completed run.
	NetworkDrops int64
	// Detours counts (re-)entries into sticky detour mode at a blocked
	// port — the number of times fault-aware routing had to steer a flit
	// off its dimension-ordered path (nonzero only with FaultAware).
	Detours int64
}

// DeliveredFraction returns Delivered/Injected — the degradation headline of
// a faulty-mesh run. An empty run reports 1.
func (r Result) DeliveredFraction() float64 {
	if r.Injected == 0 {
		return 1
	}
	return float64(r.Delivered) / float64(r.Injected)
}

// flit is one in-flight spike.
type flit struct {
	dst      int32 // destination core index
	injected int32 // injection cycle
	hops     int32 // links crossed so far (detour budget accounting)
	detour   uint8 // remaining hops of sticky detour mode after a blocked port
	yx       bool  // row-first dimension order (RouteYX / O1Turn choice)
	slot     uint8 // calendar engine: departure cycle mod calWindow (the queue engine leaves it 0)
}

// queue is a FIFO of flits on a power-of-two ring buffer: push and pop are
// O(1) with no element moves, and a full ring doubles with one copy that
// unwraps it (oldest flit back at slot 0), so FIFO order survives growth.
type queue struct {
	buf     []flit // len is 0 or a power of two
	head, n int32  // slot of the oldest flit; flits held
}

func (q *queue) len() int   { return int(q.n) }
func (q *queue) peek() flit { return q.buf[q.head] }

func (q *queue) push(f flit) {
	if int(q.n) == len(q.buf) {
		grown := make([]flit, max(4, 2*len(q.buf)))
		k := copy(grown, q.buf[q.head:])
		copy(grown[k:], q.buf[:q.head])
		q.buf, q.head = grown, 0
	}
	q.buf[(int(q.head)+int(q.n))&(len(q.buf)-1)] = f
	q.n++
}

func (q *queue) pop() flit {
	f := q.buf[q.head]
	q.head = (q.head + 1) & int32(len(q.buf)-1)
	q.n--
	return f
}

// train is one edge's injection schedule: count spikes from src to dst.
// Every spike of a train starts at src with no hops and no detour state, so
// its first routing decision is a constant of the train; the engines
// resolve it once (resolveTrains) into port/drop/blocked/yx.
type train struct {
	src, dst int32
	count    int32
	port     uint8 // output port at src
	drop     bool  // no usable first hop: spikes are dropped at injection
	blocked  bool  // first hop is a detour: spikes start in detour mode
	yx       bool  // dimension order (see orientation)
}

// local is the fifth output port of every router: delivery to the core.
const local = 4

// simState is the substrate shared by the two engines (SimulateContext) and
// the per-cycle reference scan the tests keep:
// the injection schedule, the route computation and all accounting. Both
// drivers mutate this state through the same primitives, which is what
// keeps their Results bit-identical.
type simState struct {
	cfg        Config
	mesh       hw.Mesh
	cores      int
	defects    *hw.DefectMap
	maxHops    int32
	detourHops int

	trains []train
	res    Result

	latencySum int64
	// The reference scan's tallies; the engines keep theirs in accum.
	inFlight   int64
	injections int64
}

// newSimState validates the configuration and builds the shared simulation
// state: connected components of the (possibly faulty) mesh and the
// injection schedule. The router queues belong to whichever driver keeps
// them.
func newSimState(p *pcn.PCN, pl *place.Placement, cfg Config) (*simState, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	mesh := pl.Mesh
	if cfg.Shards > mesh.Rows {
		return nil, fmt.Errorf("%w: Shards=%d exceeds the mesh's %d rows", ErrBadConfig, cfg.Shards, mesh.Rows)
	}
	s := &simState{
		cfg:     cfg,
		mesh:    mesh,
		cores:   mesh.Cores(),
		defects: cfg.Defects,
		maxHops: int32(cfg.MaxDetourHops),
	}
	if s.maxHops == 0 {
		s.maxHops = int32(4 * (mesh.Rows + mesh.Cols))
	}
	// detourHops is how long a flit stays in sticky detour mode after
	// hitting a blocked port — long enough to walk around a dead blob's
	// boundary instead of being shoved straight back against it by greedy
	// productive routing at the first healthy router.
	s.detourHops = (mesh.Rows + mesh.Cols) / 2
	if s.detourHops < 8 {
		s.detourHops = 8
	}
	if s.detourHops > 64 {
		s.detourHops = 64
	}

	// comp labels alive routers with their connected component over usable
	// links. Dead cores and failed links can partition the mesh; a spike
	// whose endpoints straddle components is undeliverable by construction,
	// so it is dropped at injection instead of orbiting in the network until
	// its detour budget runs out.
	var comp []int32
	if s.defects != nil && (s.defects.NumDead() > 0 || s.defects.NumFailedLinks() > 0) {
		comp = make([]int32, s.cores)
		for i := range comp {
			comp[i] = -1
		}
		var stack []int32
		next := int32(0)
		for c := 0; c < s.cores; c++ {
			if comp[c] >= 0 || s.defects.IsDead(c) {
				continue
			}
			comp[c] = next
			stack = append(stack[:0], int32(c))
			for len(stack) > 0 {
				idx := int(stack[len(stack)-1])
				stack = stack[:len(stack)-1]
				for port := 0; port < 4; port++ {
					if !s.portOnMesh(idx, port) || !s.linkOK(idx, port) {
						continue
					}
					if nb := s.neighbor(idx, port); comp[nb] < 0 {
						comp[nb] = next
						stack = append(stack, int32(nb))
					}
				}
			}
			next++
		}
	}

	// An unplaced cluster (place.None) or a short PosOf would index the
	// component and defect tables out of range below.
	if len(pl.PosOf) < p.NumClusters {
		return nil, fmt.Errorf("%w: placement covers %d clusters, PCN has %d", ErrBadConfig, len(pl.PosOf), p.NumClusters)
	}
	for c, pos := range pl.PosOf[:p.NumClusters] {
		if pos < 0 || int(pos) >= s.cores {
			return nil, fmt.Errorf("%w: cluster %d is not placed on the mesh (PosOf=%d, %d cores)", ErrBadConfig, c, pos, s.cores)
		}
	}

	// Build the injection schedule: per edge, a spike train. Spikes whose
	// endpoints sit on dead cores — or in mesh regions disconnected from
	// each other — can never be serviced; they count as injected-and-dropped
	// without entering the network.
	for c := 0; c < p.NumClusters; c++ {
		src := pl.PosOf[c]
		tos, ws := p.OutEdges(c)
		for k, to := range tos {
			// The float count is bounded before int64 uses it: a NaN, +Inf or
			// ≥ 2^63 count converts to math.MinInt64 and would clamp to 1.
			x := ws[k]*cfg.SpikesPerUnit + 0.5
			n := max(int64(x), 1)
			if !(x < float64(cfg.MaxSpikes)+1) || s.res.Injected+n > cfg.MaxSpikes {
				return nil, fmt.Errorf("noc: workload needs more than MaxSpikes=%d spikes; lower SpikesPerUnit: %w", cfg.MaxSpikes, place.ErrCapacityExceeded)
			}
			s.res.Injected += n
			dst := pl.PosOf[to]
			if s.defects.IsDead(int(src)) || s.defects.IsDead(int(dst)) ||
				(comp != nil && comp[src] != comp[dst]) {
				s.res.Dropped += n
				s.res.Stats.SetupDrops += n
				continue
			}
			s.trains = append(s.trains, train{src: src, dst: dst, count: int32(n)})
		}
	}

	s.res.RouterTraversals = make([]int64, s.cores)
	return s, nil
}

// portOnMesh reports whether router idx has a neighbor on port.
func (s *simState) portOnMesh(idx, port int) bool {
	r, c := idx/s.mesh.Cols, idx%s.mesh.Cols
	switch geom.Dir(port) {
	case geom.Up:
		return r > 0
	case geom.Down:
		return r < s.mesh.Rows-1
	case geom.Right:
		return c < s.mesh.Cols-1
	case geom.Left:
		return c > 0
	}
	return false
}

func (s *simState) neighbor(idx, port int) int {
	switch geom.Dir(port) {
	case geom.Up:
		return idx - s.mesh.Cols
	case geom.Down:
		return idx + s.mesh.Cols
	case geom.Right:
		return idx + 1
	case geom.Left:
		return idx - 1
	}
	return idx
}

// linkOK reports whether the link leaving idx on port is usable: not
// failed, and not leading into a dead router.
func (s *simState) linkOK(idx, port int) bool {
	if s.defects.LinkDownDir(idx, geom.Dir(port)) {
		return false
	}
	return !s.defects.IsDead(s.neighbor(idx, port))
}

// route decides the output port at router idx for the flit under its
// dimension order: column-first (XY) or row-first (YX).
func (s *simState) route(idx int, f flit) int {
	r, c := idx/s.mesh.Cols, idx%s.mesh.Cols
	dr, dc := int(f.dst)/s.mesh.Cols, int(f.dst)%s.mesh.Cols
	if f.yx {
		switch {
		case dr > r:
			return int(geom.Down)
		case dr < r:
			return int(geom.Up)
		case dc > c:
			return int(geom.Right)
		case dc < c:
			return int(geom.Left)
		}
		return local
	}
	switch {
	case dc > c:
		return int(geom.Right)
	case dc < c:
		return int(geom.Left)
	case dr > r:
		return int(geom.Down)
	case dr < r:
		return int(geom.Up)
	}
	return local
}

// routePort is the fault-aware route computation at router idx. The
// second return is true when the flit must be dropped (its
// dimension-ordered next hop is failed and fault-aware routing is off,
// or no usable port exists); the third is true when the flit hit a
// blocked port and must (re-)enter sticky detour mode.
func (s *simState) routePort(idx int, f flit) (int, bool, bool) {
	p0 := s.route(idx, f)
	primaryOK := s.defects == nil || p0 == local || s.linkOK(idx, p0)
	if primaryOK && (f.detour == 0 || p0 == local) {
		return p0, false, false
	}
	if !primaryOK && !s.cfg.FaultAware {
		return 0, true, true
	}
	// Detour walk: a weighted hash pick among every usable port, keyed
	// by (destination, router, hop count). Productive ports — the
	// primary when merely in detour mode, and the other dimension
	// order's choice — get extra weight, but are never mandatory: a
	// deterministic preference turns dead-end pockets into infinite
	// ping-pongs (productive into the pocket, forced back out of it),
	// and reverting to greedy routing the moment a port is usable pins
	// flits against the fault boundary forever. The hash is
	// reproducible yet de-correlates flits from each other and from
	// their own past, so blocked flits random-walk the healthy region:
	// they round the fault toward the destination or spread their TTL
	// drops out instead of orbiting in lockstep and stalling the
	// progress watchdog.
	var cand [10]int
	n := 0
	if primaryOK {
		cand[0], cand[1], cand[2] = p0, p0, p0
		n = 3
	}
	alt := f
	alt.yx = !f.yx
	if p1 := s.route(idx, alt); p1 != p0 && p1 != local && s.linkOK(idx, p1) {
		cand[n], cand[n+1], cand[n+2] = p1, p1, p1
		n += 3
	}
	for pp := 0; pp < 4; pp++ {
		if s.portOnMesh(idx, pp) && s.linkOK(idx, pp) {
			cand[n] = pp
			n++
		}
	}
	if n == 0 {
		return 0, true, true
	}
	h := uint32(f.dst)*2654435761 ^ uint32(idx)*2246822519 ^ uint32(f.hops)*0x9e3779b9
	h ^= h >> 13
	h *= 0x5bd1e995
	h ^= h >> 15
	return cand[h%uint32(n)], false, !primaryOK
}

// hop decides the fate of *f, a copy of a flit leaving a queue whose port
// leads into router to: drop it there, or move it into to's output port with *f
// advanced (detour state, hop count). blocked reports a (re-)entry into
// sticky detour mode; callers count it once the move is committed. f is a
// pointer because returning a just-written flit by value stalls store
// forwarding, a cost paid per hop.
func (s *simState) hop(f *flit, to, cycle int) (port int, drop, blocked bool) {
	if s.defects == nil {
		// No port is ever blocked, so no flit detours and routePort is
		// route, read before the hop count moves (the same stall).
		port = s.route(to, *f)
		f.hops++
		return port, false, false
	}
	if f.hops >= s.maxHops || cycle-int(f.injected) > s.cfg.WatchdogCycles {
		// Detour budget exhausted, or in flight longer than the watchdog
		// window (jammed against a fault boundary, where deep queues make
		// the hop TTL glacial): abandon the spike here. The age cap ends
		// faulty runs whose queues keep moving; the watchdog covers a full
		// service stall (true deadlock).
		return 0, true, false
	}
	port, drop, blocked = s.routePort(to, *f)
	if drop {
		return 0, true, false
	}
	if blocked {
		f.detour = uint8(s.detourHops)
	} else if f.detour > 0 {
		f.detour--
	}
	f.hops++
	return port, false, blocked
}

// take takes train t's spike due in cycle. full reports that its source
// queue is at the QueueCap bound: the spike then waits for a later wave (an
// injection stall). Otherwise it is dropped (no usable first hop) or
// returned, ok, as the flit to push onto its source queue. A blocked first
// hop counts a detour per attempt, stalled ones included, as the reference
// does.
func (s *simState) take(a *accum, t *train, cycle int, full bool) (f flit, ok bool) {
	if t.blocked {
		a.detours++
	}
	switch {
	case t.drop:
		t.count--
		a.dropped++
	case full:
		a.injStalls++
	default:
		t.count--
		a.injections++
		f = flit{dst: t.dst, injected: int32(cycle), yx: t.yx}
		if t.blocked {
			f.detour = uint8(s.detourHops)
		}
		return f, true
	}
	return f, false
}

// resolveTrains fills in every train's first routing decision, so an
// injection wave costs no route computation.
func (s *simState) resolveTrains() {
	for i := range s.trains {
		t := &s.trains[i]
		t.yx = s.orientation(t.src, t.dst)
		port, drop, blocked := s.routePort(int(t.src), flit{dst: t.dst, yx: t.yx})
		t.port, t.drop, t.blocked = uint8(port), drop, blocked && !drop
	}
}

// orientation decides a flit's dimension order at injection time.
func (s *simState) orientation(src, dst int32) bool {
	switch s.cfg.Routing {
	case RouteYX:
		return true
	case RouteO1Turn:
		// Deterministic per-pair hash balances the two orders. The
		// low bit must mix all input bits (a plain multiply-xor
		// degenerates to input parity), so finish with avalanche
		// shifts.
		h := uint32(src)*2654435761 ^ uint32(dst)*2246822519
		h ^= h >> 13
		h *= 0x5bd1e995
		h ^= h >> 15
		return h&1 == 1
	}
	return false
}

// deliver pops one flit off a local queue and accounts it (reference scan).
func (s *simState) deliver(q *queue, cycle int) {
	f := q.pop()
	s.res.Delivered++
	s.inFlight--
	lat := int(int32(cycle) - f.injected + 1)
	s.latencySum += int64(lat)
	if lat > s.res.MaxLatencyCycles {
		s.res.MaxLatencyCycles = lat
	}
}

// finish converts the accumulated traversal counts into the energy and
// latency summary fields.
func (s *simState) finish() Result {
	var totalRouter int64
	for _, t := range s.res.RouterTraversals {
		totalRouter += t
	}
	s.res.Energy = s.cfg.Cost.RouterEnergy*float64(totalRouter) + s.cfg.Cost.WireEnergy*float64(s.res.WireTraversals)
	if s.res.Delivered > 0 {
		s.res.AvgLatencyCycles = float64(s.latencySum) / float64(s.res.Delivered)
		s.res.AvgHops = float64(s.res.WireTraversals) / float64(s.res.Delivered)
	}
	s.res.Stats.NetworkDrops = s.res.Dropped - s.res.Stats.SetupDrops
	return s.res
}

// Simulate injects the PCN's traffic into the mesh under the placement and
// runs until every spike is delivered or dropped (or a limit is hit,
// returning an error).
func Simulate(p *pcn.PCN, pl *place.Placement, cfg Config) (Result, error) {
	return SimulateContext(context.Background(), p, pl, cfg)
}

// SimulateContext is Simulate with cooperative cancellation: the cycle loop
// checks ctx periodically and returns the partial Result with an error
// wrapping ErrCanceled when the context is done.
//
// Unbounded queues (QueueCap == 0) run the calendar engine (calendar.go),
// bounded ones the queue engine (queues.go), both on the calling goroutine.
// Either way the Result is bit-identical to the per-cycle reference scan
// this package's tests keep.
func SimulateContext(ctx context.Context, p *pcn.PCN, pl *place.Placement, cfg Config) (Result, error) {
	if err := ctx.Err(); err != nil {
		return Result{}, fmt.Errorf("noc: %v: %w", err, ErrCanceled)
	}
	s, err := newSimState(p, pl, cfg)
	if err != nil {
		return Result{}, err
	}
	s.resolveTrains()
	var e engine
	if s.cfg.QueueCap == 0 {
		e = newCalendar(s)
	} else {
		e = newQueueEngine(s)
	}
	sp := s.cfg.Obs.Span("noc.sim", obs.KV{K: "spikes", V: float64(s.res.Injected)})
	res, err := s.run(ctx, e)
	if err != nil {
		sp.End()
		return res, err
	}
	sp.End(
		obs.KV{K: "cycles", V: float64(res.Cycles)},
		obs.KV{K: "delivered", V: float64(res.Delivered)},
		obs.KV{K: "dropped", V: float64(res.Dropped)})
	return res, nil
}

// accum collects an engine's running tallies, folded into the Result by
// simState.merge.
type accum struct {
	delivered  int64 // spikes delivered to their destination core
	dropped    int64 // spikes dropped during the run (injection-time + in-network)
	injections int64 // spikes that entered the network (successful queue pushes)
	exited     int64 // resident spikes that left: deliveries + in-network drops
	latencySum int64
	wire       int64
	stalls     int64
	injStalls  int64
	detours    int64 // sticky detour-mode entries at blocked ports
	maxLatency int
	maxQueue   int
}

// deliver accounts the delivery in cycle of a flit injected in cycle
// injected.
func (a *accum) deliver(cycle int, injected int32) {
	lat := cycle - int(injected) + 1
	a.delivered++
	a.exited++
	a.latencySum += int64(lat)
	a.maxLatency = max(a.maxLatency, lat)
}

// engine services the queues; simState.run owns the cycle loop around it.
type engine interface {
	// tallies returns the engine's accumulator.
	tallies() *accum
	// pending reports whether any injection train has spikes left.
	pending() bool
	// begin opens a cycle with the injection wave when inject is set. It
	// may also deliver the cycle's local flits (the queue engine does, in
	// its scan): run counts exits from before begin until the next cycle.
	begin(cycle int, inject bool)
	// service delivers, moves or drops every flit that leaves a queue in
	// cycle.
	service(cycle int)
}

// run is the cycle loop shared by both engines: limits, cancellation, the
// watchdog, injection, termination and idle fast-forward, all computed from
// the engine's merged tallies.
func (s *simState) run(ctx context.Context, e engine) (Result, error) {
	cfg := s.cfg
	a := e.tallies()
	// Progress is an injection, delivery or drop, not wire movement, so the
	// watchdog also catches a spike orbiting an unreachable destination.
	lastProgress := int64(-1)
	lastProgressCycle := 0
	// ffSkipped counts idle cycles jumped by fast-forward (telemetry only;
	// never part of Result — the reference oracle has no fast-forward).
	var ffSkipped int64

	for cycle := 0; ; cycle++ {
		// Tallies as of the end of the previous cycle.
		injections, delivered, exited := a.injections, a.delivered, a.exited
		inFlight := injections - exited
		dropped := a.dropped + s.res.Dropped // plus injection-time setup drops
		if cycle > cfg.MaxCycles {
			return s.merge(a), fmt.Errorf("noc: exceeded MaxCycles=%d with %d spikes in flight: %w", cfg.MaxCycles, inFlight, ErrLivelock)
		}
		if cycle&2047 == 0 && ctx.Err() != nil {
			return s.merge(a), fmt.Errorf("noc: %v after %d cycles: %w", ctx.Err(), cycle, ErrCanceled)
		}
		if progress := injections + delivered + dropped; progress != lastProgress {
			lastProgress = progress
			lastProgressCycle = cycle
		} else if cycle-lastProgressCycle > cfg.WatchdogCycles {
			return s.merge(a), fmt.Errorf("noc: no forward progress for %d cycles with %d spikes in flight (delivered %d, dropped %d): %w",
				cfg.WatchdogCycles, inFlight, delivered, dropped, ErrLivelock)
		}
		if cfg.Obs.Enabled() && cycle&4095 == 0 {
			cfg.Obs.Progress("noc.sim", delivered+dropped, s.res.Injected)
		}

		e.begin(cycle, e.pending() && cycle%cfg.InjectionInterval == 0)

		// Termination and fast-forward use the in-flight count as the
		// reference sees it at this point: after injection but before this
		// cycle's deliveries, hence the exit count from before begin. (If it
		// is zero, no queue held a flit, so begin delivered nothing.)
		afterInject := a.injections - exited
		if afterInject == 0 && !e.pending() {
			s.res.Cycles = cycle
			break
		}
		if afterInject == 0 {
			// Idle fast-forward to the next injection wave. Capped at
			// MaxCycles+1 so a wave scheduled past the cycle limit still
			// fails exactly where the reference fails.
			next := (cycle/cfg.InjectionInterval + 1) * cfg.InjectionInterval
			if next > cfg.MaxCycles+1 {
				next = cfg.MaxCycles + 1
			}
			if next-1 > cycle {
				ffSkipped += int64(next - 1 - cycle)
				cycle = next - 1
			}
			continue
		}
		e.service(cycle)
	}

	s.merge(a)
	if cfg.Obs.Enabled() {
		cfg.Obs.Counter("noc.fastforward", obs.KV{K: "skipped_cycles", V: float64(ffSkipped)})
		cfg.Obs.Counter("noc.shard",
			obs.KV{K: "shard", V: 0},
			obs.KV{K: "flits", V: float64(a.injections)},
			obs.KV{K: "hops", V: float64(a.wire)},
			obs.KV{K: "drops", V: float64(a.dropped)},
			obs.KV{K: "detours", V: float64(a.detours)},
			obs.KV{K: "stalls", V: float64(a.stalls)},
			obs.KV{K: "max_queue", V: float64(a.maxQueue)})
		cfg.Obs.Progress("noc.sim", s.res.Delivered+s.res.Dropped, s.res.Injected)
	}
	return s.finish(), nil
}

// merge folds the engine's tallies into s.res (on top of the injection-time
// accounting newSimState left there) and returns it. The engine stops at the
// first merge, so it happens once.
func (s *simState) merge(a *accum) Result {
	s.res.Delivered += a.delivered
	s.res.Dropped += a.dropped
	s.res.WireTraversals += a.wire
	s.res.Stalls += a.stalls
	s.res.InjectionStalls += a.injStalls
	s.res.Stats.Detours += a.detours
	s.res.MaxLatencyCycles = max(s.res.MaxLatencyCycles, a.maxLatency)
	s.res.MaxQueueLen = max(s.res.MaxQueueLen, a.maxQueue)
	s.latencySum += a.latencySum
	return s.res
}
