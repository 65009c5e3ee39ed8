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
// enter dead routers, and a failed link forces a detour — the secondary
// dimension order first, then a bounded misroute. Runs on a
// faulty mesh account undeliverable spikes instead of failing, and a
// progress watchdog converts a livelocked or deadlocked simulation into a
// typed ErrLivelock instead of a hang.
//
// Queues are unbounded and every edge injects one spike per cycle until its
// train is spent — the traffic model behind the paper's metrics. Under it a
// port releases one flit in every cycle it holds one, so a flit's departure
// cycle is fixed when it is pushed. Simulate/SimulateContext therefore run
// one cycle loop (simState.run: limits, the watchdog, injection,
// termination) over the calendar engine (calendar.go), which files each flit
// under its departure cycle and streams one cycle's flits at a time, keeping
// no queues at all. Each hop is decided in one place, simState.hop;
// exhausted trains are compacted out and each train's first hop is resolved
// once.
//
// The engine runs on the calling goroutine. The original per-cycle scan of
// every router's queues survives only in this package's tests, as the
// equivalence oracle the calendar must match bit for bit.
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
	// progress (or ran past the cycle limit) with spikes still in flight.
	ErrLivelock = errors.New("noc: livelock")
	// ErrCanceled reports that the caller's context canceled the run
	// (shared with the mapping pipeline via internal/place).
	ErrCanceled = place.ErrCanceled
)

// Config tunes a simulation run. Spikes take dimension-ordered column-first
// (XY) routes through unbounded output queues.
type Config struct {
	// Cost converts traversal counts into energy and ideal latency; the
	// zero value means hw.DefaultCostModel().
	Cost hw.CostModel
	// SpikesPerUnit scales PCN edge weights into injected spike counts
	// (each edge injects max(1, round(w·SpikesPerUnit)) spikes, one per
	// cycle). Zero means 1; NaN and ±Inf are rejected.
	SpikesPerUnit float64
	// Defects marks dead cores and failed links. Spikes sourced at or
	// destined to a dead core are dropped at injection; failed links are
	// never traversed but routed around: the secondary productive
	// dimension first, then a misroute bounded by a budget of
	// 4·(rows+cols) hops.
	Defects *hw.DefectMap
	// Shards is accepted and ignored: the engine runs on the calling
	// goroutine. It must not be negative or exceed the mesh's row count;
	// ClampShards turns any request into a count that validates.
	Shards int
	// Obs receives a run span, throttled progress, and one noc.shard
	// counter sample (flits, hops, drops, detours, max_queue) after the
	// run; nil disables telemetry.
	// Observe-only: the simulation and its Result are bit-identical with or
	// without it. Only the engine emits; the test-only reference scan stays
	// the pristine oracle.
	Obs *obs.Observer

	// limits lowers the safety limits so a run reaches them in a few
	// cycles. Only this package's tests set it.
	limits limits
}

// The simulator's safety limits. Spike counts, cycle stamps and hop counts
// are stored as int32 (train.count, flit.injected, flit.hops against
// maxHops), so every limit must fit one: the assertion below does not
// compile otherwise.
const (
	// maxCycles aborts a runaway simulation with an error wrapping
	// ErrLivelock.
	maxCycles = 10_000_000
	// maxSpikes caps the total injected spike count to keep memory bounded;
	// a workload past it fails with place.ErrCapacityExceeded.
	maxSpikes = 5_000_000
	// watchdogCycles is the progress watchdog: if no spike is injected,
	// delivered or dropped for this many cycles while spikes are in flight,
	// the run fails with ErrLivelock. It is also the in-flight age past
	// which a spike on a faulty mesh is dropped.
	watchdogCycles = 1_000_000
)

var _ = [1]struct{}{}[max(maxCycles, maxSpikes, watchdogCycles)>>31]

// limits are a run's safety limits. A zero field takes its default: the
// constant above, or 4·(rows+cols) hops for maxDetourHops, the budget past
// which a detoured spike is dropped as undeliverable.
type limits struct {
	maxCycles, watchdogCycles, maxDetourHops int
	maxSpikes                                int64
}

func (c Config) withDefaults() Config {
	if c.Cost == (hw.CostModel{}) {
		c.Cost = hw.DefaultCostModel()
	}
	if c.SpikesPerUnit <= 0 {
		c.SpikesPerUnit = 1
	}
	if c.limits.maxCycles <= 0 {
		c.limits.maxCycles = maxCycles
	}
	if c.limits.maxSpikes <= 0 {
		c.limits.maxSpikes = maxSpikes
	}
	if c.limits.watchdogCycles <= 0 {
		c.limits.watchdogCycles = watchdogCycles
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
	if !(c.SpikesPerUnit >= 0) || math.IsInf(c.SpikesPerUnit, 1) {
		return fmt.Errorf("%w: SpikesPerUnit %g, want a finite value ≥ 0", ErrBadConfig, c.SpikesPerUnit)
	}
	if c.Shards < 0 {
		return fmt.Errorf("%w: negative Shards %d", ErrBadConfig, c.Shards)
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
	// Stats breaks the fault accounting down. The engine and the reference
	// compute it at the same decision sites, so it is part of the
	// bit-identity contract.
	Stats Stats
}

// Stats is the per-run drop/detour breakdown on a Result.
type Stats struct {
	// SetupDrops counts spikes dropped while building the injection
	// schedule: an endpoint was dead, or source and destination sat in
	// mesh regions disconnected by faults. These spikes never enter the
	// network.
	SetupDrops int64
	// NetworkDrops counts spikes dropped in flight: no usable port, an
	// exhausted detour budget, or the in-flight age cap. Filled
	// by finish(), so it is zero on a run that ended in an error. Always
	// SetupDrops + NetworkDrops == Dropped on a completed run.
	NetworkDrops int64
	// Detours counts (re-)entries into sticky detour mode at a blocked
	// port — the number of times fault-aware routing had to steer a flit
	// off its dimension-ordered path (nonzero only on a faulty mesh).
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
	slot     uint8 // departure cycle mod calWindow, while filed in the calendar
}

// train is one edge's injection schedule: count spikes from src to dst.
// Every spike of a train starts at src with no hops and no detour state, so
// its first routing decision is a constant of the train, resolved once
// (resolveTrains) into port/drop/blocked.
type train struct {
	src, dst int32
	count    int32
	port     uint8 // output port at src
	drop     bool  // no usable first hop: spikes are dropped at injection
	blocked  bool  // first hop is a detour: spikes start in detour mode
}

// local is the fifth output port of every router: delivery to the core.
const local = 4

// simState is the substrate shared by the calendar engine (SimulateContext)
// and the per-cycle reference scan the tests keep: the injection schedule,
// the route computation and all accounting. Both drivers mutate this state
// through the same primitives, which is what keeps their Results
// bit-identical.
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
}

// newSimState validates the configuration and builds the shared simulation
// state: connected components of the (possibly faulty) mesh and the
// injection schedule. The router queues, if any, belong to the driver.
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
		maxHops: int32(cfg.limits.maxDetourHops),
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
			if !(x < float64(cfg.limits.maxSpikes)+1) || s.res.Injected+n > cfg.limits.maxSpikes {
				return nil, fmt.Errorf("noc: workload needs more than the simulator's %d spikes; lower SpikesPerUnit: %w", cfg.limits.maxSpikes, place.ErrCapacityExceeded)
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

// route decides the output port at router idx toward dst under
// dimension-ordered column-first (XY) routing.
func (s *simState) route(idx int, dst int32) int {
	r, c := idx/s.mesh.Cols, idx%s.mesh.Cols
	dr, dc := int(dst)/s.mesh.Cols, int(dst)%s.mesh.Cols
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

// routeYX is route under the other dimension order, row-first: the
// productive alternative a fault-aware detour offers.
func (s *simState) routeYX(idx int, dst int32) int {
	r, c := idx/s.mesh.Cols, idx%s.mesh.Cols
	dr, dc := int(dst)/s.mesh.Cols, int(dst)%s.mesh.Cols
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

// routePort is the fault-aware route computation at router idx. The
// second return is true when the flit must be dropped (no usable port
// exists); the third is true when the flit hit a blocked port and must
// (re-)enter sticky detour mode.
func (s *simState) routePort(idx int, f flit) (int, bool, bool) {
	p0 := s.route(idx, f.dst)
	primaryOK := s.defects == nil || p0 == local || s.linkOK(idx, p0)
	if primaryOK && (f.detour == 0 || p0 == local) {
		return p0, false, false
	}
	// Detour walk: a weighted hash pick among every usable port, keyed
	// by (destination, router, hop count). Productive ports — the
	// primary when merely in detour mode, and the row-first order's
	// choice — get extra weight, but are never mandatory: a
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
	if p1 := s.routeYX(idx, f.dst); p1 != p0 && p1 != local && s.linkOK(idx, p1) {
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

// hop decides the fate of *f, a copy of a flit leaving a port that leads
// into router to: drop it there, or move it into to's output port with *f
// advanced (detour state, hop count). blocked reports a (re-)entry into
// sticky detour mode; callers count it once the move is committed. f is a
// pointer because returning a just-written flit by value stalls store
// forwarding, a cost paid per hop.
func (s *simState) hop(f *flit, to, cycle int) (port int, drop, blocked bool) {
	if s.defects == nil {
		// No port is ever blocked, so no flit detours and routePort is
		// route, read before the hop count moves (the same stall).
		port = s.route(to, f.dst)
		f.hops++
		return port, false, false
	}
	if f.hops >= s.maxHops || cycle-int(f.injected) > s.cfg.limits.watchdogCycles {
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

// take takes train t's spike due in cycle: it is dropped (no usable first
// hop) or returned, ok, as the flit to push onto its source queue. A blocked
// first hop counts a detour.
func (s *simState) take(a *accum, t *train, cycle int) (f flit, ok bool) {
	t.count--
	if t.drop {
		a.dropped++
		return f, false
	}
	if t.blocked {
		a.detours++
	}
	a.injections++
	f = flit{dst: t.dst, injected: int32(cycle)}
	if t.blocked {
		f.detour = uint8(s.detourHops)
	}
	return f, true
}

// resolveTrains fills in every train's first routing decision, so an
// injection wave costs no route computation.
func (s *simState) resolveTrains() {
	for i := range s.trains {
		t := &s.trains[i]
		port, drop, blocked := s.routePort(int(t.src), flit{dst: t.dst})
		t.port, t.drop, t.blocked = uint8(port), drop, blocked && !drop
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
// The run takes the calendar engine (calendar.go) on the calling goroutine;
// its Result is bit-identical to the per-cycle reference scan this package's
// tests keep.
func SimulateContext(ctx context.Context, p *pcn.PCN, pl *place.Placement, cfg Config) (Result, error) {
	if err := ctx.Err(); err != nil {
		return Result{}, fmt.Errorf("noc: %v: %w", err, ErrCanceled)
	}
	s, err := newSimState(p, pl, cfg)
	if err != nil {
		return Result{}, err
	}
	s.resolveTrains()
	sp := s.cfg.Obs.Span("noc.sim", obs.KV{K: "spikes", V: float64(s.res.Injected)})
	res, err := s.run(ctx, newCalendar(s))
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

// accum collects the engine's running tallies, folded into the Result by
// simState.merge.
type accum struct {
	delivered  int64 // spikes delivered to their destination core
	dropped    int64 // spikes dropped during the run (injection-time + in-network)
	injections int64 // spikes that entered the network (successful queue pushes)
	exited     int64 // resident spikes that left: deliveries + in-network drops
	latencySum int64
	wire       int64
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

// run is the cycle loop around the calendar: limits, cancellation, the
// watchdog, injection and termination, all computed from its tallies.
func (s *simState) run(ctx context.Context, c *calendar) (Result, error) {
	cfg := s.cfg
	a := &c.acc
	// Progress is an injection, delivery or drop, not wire movement, so the
	// watchdog also catches a spike orbiting an unreachable destination.
	lastProgress := int64(-1)
	lastProgressCycle := 0

	for cycle := 0; ; cycle++ {
		// Tallies as of the end of the previous cycle.
		injections, delivered := a.injections, a.delivered
		inFlight := injections - a.exited
		dropped := a.dropped + s.res.Dropped // plus injection-time setup drops
		if cycle > cfg.limits.maxCycles {
			return s.merge(a), fmt.Errorf("noc: exceeded the %d-cycle limit with %d spikes in flight: %w", cfg.limits.maxCycles, inFlight, ErrLivelock)
		}
		if cycle&2047 == 0 && ctx.Err() != nil {
			return s.merge(a), fmt.Errorf("noc: %v after %d cycles: %w", ctx.Err(), cycle, ErrCanceled)
		}
		if progress := injections + delivered + dropped; progress != lastProgress {
			lastProgress = progress
			lastProgressCycle = cycle
		} else if cycle-lastProgressCycle > cfg.limits.watchdogCycles {
			return s.merge(a), fmt.Errorf("noc: no forward progress for %d cycles with %d spikes in flight (delivered %d, dropped %d): %w",
				cfg.limits.watchdogCycles, inFlight, delivered, dropped, ErrLivelock)
		}
		if cfg.Obs.Enabled() && cycle&4095 == 0 {
			cfg.Obs.Progress("noc.sim", delivered+dropped, s.res.Injected)
		}

		c.begin(cycle)
		// The run ends in the first cycle that opens with nothing in flight
		// and no train left to inject.
		if a.injections == a.exited && len(c.trains) == 0 {
			s.res.Cycles = cycle
			break
		}
		c.service(cycle)
	}

	s.merge(a)
	if cfg.Obs.Enabled() {
		cfg.Obs.Counter("noc.shard",
			obs.KV{K: "flits", V: float64(a.injections)},
			obs.KV{K: "hops", V: float64(a.wire)},
			obs.KV{K: "drops", V: float64(a.dropped)},
			obs.KV{K: "detours", V: float64(a.detours)},
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
	s.res.Stats.Detours += a.detours
	s.res.MaxLatencyCycles = max(s.res.MaxLatencyCycles, a.maxLatency)
	s.res.MaxQueueLen = max(s.res.MaxQueueLen, a.maxQueue)
	s.latencySum += a.latencySum
	return s.res
}
