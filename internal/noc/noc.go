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
// Simulate/SimulateContext run the event-driven engine: one coordinator loop
// over k ≥ 1 row strips (Config.Shards), with a goroutine per strip only for
// k ≥ 2. Per strip, an occupancy bitmap kept exact at the queue push and pop
// sites names the non-empty ports, so a cycle's scan visits only those (in
// ascending router order, the bitmap's bit order); exhausted trains are
// compacted out, each train's first hop is resolved once, idle stretches
// between injection waves are fast-forwarded, and each hop is decided in one
// place, simState.hop.
//
// The original per-cycle scan of every router survives only in this
// package's tests, as the equivalence oracle the event engine (at every
// shard count) must match bit for bit.
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
	// ErrLivelock instead of hanging. 0 means unbounded.
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
	// Shards partitions the mesh into this many contiguous row strips,
	// each simulated by its own goroutine with cycle-synchronized
	// boundary exchange; Results are bit-identical at every shard
	// count. 0 or 1 means one whole-mesh strip stepped on the calling
	// goroutine. Shards must not exceed the mesh's row count (one row
	// strip per shard at minimum); see ClampShards for a caller-side clamp.
	// With bounded queues (QueueCap > 0) credit decisions form a
	// sequential dependency chain across strips, so the service-apply
	// phase runs on the coordinator while injection and the
	// collect/deliver scan still fan out.
	Shards int
	// Obs receives a run span, throttled progress, and per-shard counters
	// (flits, hops, drops, detours, stalls) emitted in strip order after
	// the run; nil disables telemetry. Observe-only: the simulation and its
	// Result are bit-identical with or without it. Only the event-driven
	// engine emits; the test-only reference scan stays the pristine oracle.
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
	if c.Shards <= 0 {
		c.Shards = 1
	}
	return c
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
	// Spike counts and cycle stamps are stored as int32 (train.count,
	// flit.injected); a larger limit would let them wrap silently.
	for _, v := range [...]struct {
		name string
		val  int64
	}{
		{"MaxSpikes", c.MaxSpikes},
		{"MaxCycles", int64(c.MaxCycles)},
		{"WatchdogCycles", int64(c.WatchdogCycles)},
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
// its first routing decision is a constant of the train; the event engine
// resolves it once (resolveTrains) into port/drop/blocked/yx.
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

// simState is the substrate shared by the event-driven engine
// (SimulateContext) and the per-cycle reference scan the tests keep:
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
	queues []queue // cores*5: 4 directions + local delivery per router
	res    Result

	latencySum int64
	// The reference scan's tallies; the engine's strips keep theirs in accum.
	inFlight   int64
	injections int64
}

// newSimState validates the configuration and builds the shared simulation
// state: connected components of the (possibly faulty) mesh, the injection
// schedule, and the empty router queues.
func newSimState(p *pcn.PCN, pl *place.Placement, cfg Config) (*simState, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	mesh := pl.Mesh
	if cfg.Shards > mesh.Rows {
		return nil, fmt.Errorf("%w: Shards=%d exceeds the mesh's %d rows (each shard needs at least one row strip)", ErrBadConfig, cfg.Shards, mesh.Rows)
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

	s.queues = make([]queue, s.cores*5)
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

// hop decides the fate of *f, a copy of the head of a queue whose port leads
// into router to: drop it there, or move it into to's output port with *f
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
// returning an error). It runs the event-driven engine.
func Simulate(p *pcn.PCN, pl *place.Placement, cfg Config) (Result, error) {
	return SimulateContext(context.Background(), p, pl, cfg)
}

// SimulateContext is Simulate with cooperative cancellation: the cycle loop
// checks ctx periodically and returns the partial Result with an error
// wrapping ErrCanceled when the context is done.
//
// The mesh is partitioned into cfg.Shards row strips (one whole-mesh strip
// by default), simulated on one goroutine each when there are two or more
// (see shard.go). At every shard count the Result is bit-identical to the
// per-cycle reference scan this package's tests keep.
func SimulateContext(ctx context.Context, p *pcn.PCN, pl *place.Placement, cfg Config) (Result, error) {
	if err := ctx.Err(); err != nil {
		return Result{}, fmt.Errorf("noc: %v: %w", err, ErrCanceled)
	}
	s, err := newSimState(p, pl, cfg)
	if err != nil {
		return Result{}, err
	}
	sp := s.cfg.Obs.Span("noc.sim",
		obs.KV{K: "spikes", V: float64(s.res.Injected)},
		obs.KV{K: "shards", V: float64(s.cfg.Shards)})
	res, err := simulateStrips(ctx, s)
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

// emitShardCounters publishes one "noc.shard" counter sample per strip, in
// strip order — a fixed aggregation order regardless of how the strips'
// goroutines interleaved.
func emitShardCounters(o *obs.Observer, strips []*strip) {
	for i, st := range strips {
		o.Counter("noc.shard",
			obs.KV{K: "shard", V: float64(i)},
			obs.KV{K: "flits", V: float64(st.acc.injections)},
			obs.KV{K: "hops", V: float64(st.acc.wire)},
			obs.KV{K: "drops", V: float64(st.acc.dropped)},
			obs.KV{K: "detours", V: float64(st.acc.detours)},
			obs.KV{K: "stalls", V: float64(st.acc.stalls)},
			obs.KV{K: "max_queue", V: float64(st.acc.maxQueue)})
	}
}
