package noc

import (
	"context"
	"fmt"
	"math/bits"
	"sync"

	"snnmap/internal/obs"
)

// This file implements the event-driven engine: the mesh is partitioned into
// contiguous row strips (one whole-mesh strip unless Config.Shards asks for
// more), and one coordinator loop steps every strip through the two phases
// of each cycle. One strip is stepped inline; two or more are each owned by
// a worker goroutine, with a conservative barrier between the phases
// (Booksim-style parallel discrete-event simulation specialized to a
// deterministic-cycle mesh).
//
// Row strips make ownership trivial under row-major indexing: strip k owns
// the contiguous router range [lo, hi), so the concatenation of per-strip
// candidate lists in strip order IS the reference's ascending-router
// service order. Every queue is read and written only by its owning strip:
//
//   - Pushes into a strip's queues are performed by the owner — flits
//     arriving from a neighboring strip are pre-decided by the source
//     strip during collect (with unbounded queues the move/drop decision
//     depends only on the flit and static state) and shipped through a
//     per-(strip-pair, direction) exchange buffer; the owner pushes them
//     at their exact global-order position.
//   - Pops of a strip's queues are performed by the owner — a
//     boundary-crossing candidate keeps a marker in the source strip's own
//     candidate list, so the pop happens at the same position relative to
//     same-cycle pushes as in the reference (MaxQueueLen is sensitive to
//     that interleaving).
//
// Cross-strip candidates exist only on Up/Down ports at strip edges
// (East/West neighbors share the row, hence the strip). A ship from strip
// k to k+1 sorts before all of k+1's own candidates (its source router
// index is smaller), and a ship from k to k-1 sorts after all of k-1's own
// candidates — so the merged apply order per strip is simply
// [ships-from-above, own candidates, ships-from-below].
//
// Bounded queues (QueueCap > 0) are the one case that cannot be
// pre-decided: whether a flit moves or stalls depends on the destination
// queue's occupancy at its exact global position, and stall chains can
// zigzag across strip boundaries. For that configuration the coordinator
// runs the service-apply phase itself between barriers (injection and the
// collect/deliver scan still fan out), trading apply-phase parallelism for
// the bit-identity contract.

// accum collects one strip's share of the running tallies. All fields are
// either sums or maxes, so merging per-strip accumulators in any order
// reproduces the one-strip totals exactly.
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

// stripCand kinds: how the owning strip applies one collected candidate.
const (
	candIntra uint8 = iota // destination router in this strip: full apply
	candShip               // pre-decided boundary move: pop here, push shipped
	candDrop               // pre-decided boundary drop: pop + account here
)

// stripCand is one queue head eligible to move this cycle, from the
// perspective of the strip that owns the source queue.
type stripCand struct {
	src  int32 // source queue index in simState.queues
	to   int32 // destination router (candIntra only)
	kind uint8
}

// ship is one pre-decided boundary crossing: the flit (already advanced by
// its hop) and the router and output port whose queue the owning strip must
// push it into.
type ship struct {
	to   int32
	port uint8
	f    flit
}

// strip owns the routers in [lo, hi): their queues, their injection trains,
// and their occupancy worklist. With one shard a single strip spans the
// whole mesh.
//
// The worklist is three levels, all indexed by router-lo so that no two
// strips ever share a byte or word: occ[r] has bit p set iff port p's queue
// of router lo+r is non-empty, word[r/64] has bit r%64 set iff occ[r] != 0,
// and summary[w/64] has bit w%64 set iff word[w] != 0. push and pop are the
// only writers, and every queue operation of the event engine goes through
// them.
type strip struct {
	s        *simState
	lo, hi   int     // owned router range [lo, hi)
	trains   []train // injection trains with src in [lo, hi), original order
	occ      []uint8
	word     []uint64
	summary  []uint64
	cands    []stripCand
	shipUp   []ship // pushes into the strip above (smaller router indices)
	shipDown []ship // pushes into the strip below
	acc      accum
	// Strips are allocated back to back and each is written constantly by
	// its own goroutine (acc, the cands header); the pad keeps two strips'
	// fields off one cache line (and off an adjacent-line prefetch pair).
	_ [128]byte
}

// push appends f to output port's queue of router idx (owned by this strip)
// and accounts the router traversal the push stands for.
func (st *strip) push(idx, port int, f flit) {
	q := &st.s.queues[idx*5+port]
	q.push(f)
	if q.len() > st.acc.maxQueue {
		st.acc.maxQueue = q.len()
	}
	st.s.res.RouterTraversals[idx]++
	r := idx - st.lo
	if st.occ[r] == 0 {
		if st.word[r>>6] == 0 {
			st.summary[r>>12] |= 1 << (r >> 6 & 63)
		}
		st.word[r>>6] |= 1 << (r & 63)
	}
	st.occ[r] |= 1 << port
}

// pop removes the head of queue qi (owned by this strip). It takes the queue
// index candidates carry: the router and port are needed only when the queue
// drains.
func (st *strip) pop(qi int) flit {
	q := &st.s.queues[qi]
	f := q.pop()
	if q.len() == 0 {
		idx := qi / 5
		r := idx - st.lo
		if st.occ[r] &^= 1 << (qi - idx*5); st.occ[r] == 0 {
			if st.word[r>>6] &^= 1 << (r & 63); st.word[r>>6] == 0 {
				st.summary[r>>12] &^= 1 << (r >> 6 & 63)
			}
		}
	}
	return f
}

// inject runs one injection wave over this strip's trains: due spikes enter
// their source router's queues directly, a full source queue defers the
// injection, and exhausted trains are compacted out in the same
// order-preserving pass.
func (st *strip) inject(cycle int) {
	s := st.s
	w := 0
	for _, t := range st.trains {
		if t.blocked {
			// Counted per attempt, stalled ones included, as the
			// reference does.
			st.acc.detours++
		}
		switch {
		case t.drop:
			t.count--
			st.acc.dropped++
		case s.cfg.QueueCap > 0 && s.queues[int(t.src)*5+int(t.port)].len() >= s.cfg.QueueCap:
			st.acc.injStalls++
		default:
			f := flit{dst: t.dst, injected: int32(cycle), yx: t.yx}
			if t.blocked {
				f.detour = uint8(s.detourHops)
			}
			t.count--
			st.push(int(t.src), int(t.port), f)
			st.acc.injections++
		}
		if t.count > 0 {
			st.trains[w] = t
			w++
		}
	}
	st.trains = st.trains[:w]
}

// deliver pops one flit off a local queue and accounts its delivery into
// the strip's accumulator.
func (st *strip) deliver(qi, cycle int) {
	f := st.pop(qi)
	st.acc.delivered++
	st.acc.exited++
	lat := int(int32(cycle) - f.injected + 1)
	st.acc.latencySum += int64(lat)
	if lat > st.acc.maxLatency {
		st.acc.maxLatency = lat
	}
}

// collect scans this strip's occupied ports in ascending (router, port)
// order — the bit order of the worklist — delivering one flit per local
// queue and gathering one candidate per occupied output port: the strip's
// slice of the reference's global service order. Each level is read into a
// local before it is walked and collect pushes nothing, so the scan is a
// snapshot: a port that apply makes non-empty is first serviced next cycle.
//
// With preDecide set (unbounded queues), candidates whose
// destination lies outside [lo, hi) are resolved immediately: the move or
// drop depends only on the flit and static state, never on queue
// occupancy, so the outcome is identical to deciding it at apply time. A
// moving flit is advanced by its hop and appended to the exchange buffer
// toward the owning strip; the local candidate list keeps a pop marker at
// the candidate's position.
func (st *strip) collect(cycle int, preDecide bool) {
	st.cands = st.cands[:0]
	st.shipUp, st.shipDown = st.shipUp[:0], st.shipDown[:0]
	for si, sum := range st.summary {
		for ; sum != 0; sum &= sum - 1 {
			wi := si<<6 | bits.TrailingZeros64(sum)
			for word := st.word[wi]; word != 0; word &= word - 1 {
				r := wi<<6 | bits.TrailingZeros64(word)
				idx := st.lo + r
				for occ := st.occ[r]; occ != 0; occ &= occ - 1 {
					port := bits.TrailingZeros8(occ)
					qi := idx*5 + port
					if port == local {
						st.deliver(qi, cycle)
						continue
					}
					to := st.s.neighbor(idx, port)
					if preDecide && (to < st.lo || to >= st.hi) {
						st.collectCrossing(qi, to, cycle)
						continue
					}
					st.cands = append(st.cands, stripCand{src: int32(qi), to: int32(to), kind: candIntra})
				}
			}
		}
	}
}

// collectCrossing pre-decides the head of queue qi, bound for router to in a
// neighboring strip.
func (st *strip) collectCrossing(qi, to, cycle int) {
	f := st.s.queues[qi].peek()
	port, drop, blocked := st.s.hop(&f, to, cycle)
	if drop {
		st.cands = append(st.cands, stripCand{src: int32(qi), kind: candDrop})
		return
	}
	if blocked {
		st.acc.detours++
	}
	sh := ship{to: int32(to), port: uint8(port), f: f}
	if to < st.lo {
		st.shipUp = append(st.shipUp, sh)
	} else {
		st.shipDown = append(st.shipDown, sh)
	}
	st.cands = append(st.cands, stripCand{src: int32(qi), kind: candShip})
}

// applyCand services one candidate whose source queue this strip owns and
// whose destination router dst owns: the flit is dropped (detour TTL or
// fault), stalled (bounded full queue), or moved one hop, all accounted to
// dst. dst is another strip only when the coordinator applies bounded
// queues across strips, with the workers parked at the barrier.
func (st *strip) applyCand(c stripCand, cycle int, dst *strip) {
	s := st.s
	f := s.queues[c.src].peek()
	port, drop, blocked := s.hop(&f, int(c.to), cycle)
	if drop {
		st.pop(int(c.src))
		dst.acc.dropped++
		dst.acc.exited++
		return
	}
	if s.cfg.QueueCap > 0 && s.queues[int(c.to)*5+port].len() >= s.cfg.QueueCap {
		dst.acc.stalls++
		return
	}
	st.pop(int(c.src))
	if blocked {
		dst.acc.detours++
	}
	dst.acc.wire++
	dst.push(int(c.to), port, f)
}

// apply services this strip's merged worklist for one cycle in global
// candidate order: pushes shipped from the strip above (all of which sort
// before this strip's own candidates), then the strip's own candidates,
// then pushes shipped from the strip below.
func (st *strip) apply(cycle int, fromAbove, fromBelow []ship) {
	for _, sh := range fromAbove {
		st.push(int(sh.to), int(sh.port), sh.f)
	}
	for _, c := range st.cands {
		switch c.kind {
		case candIntra:
			st.applyCand(c, cycle, st)
		case candShip:
			st.pop(int(c.src))
			st.acc.wire++
		case candDrop:
			st.pop(int(c.src))
			st.acc.dropped++
			st.acc.exited++
		}
	}
	for _, sh := range fromBelow {
		st.push(int(sh.to), int(sh.port), sh.f)
	}
}

// mergeStrips folds the strips' accumulators into s.res (on top of the
// injection-time accounting newSimState left there) and returns it. Sums
// and maxes only, so the merge order cannot change any field.
func (s *simState) mergeStrips(strips ...*strip) Result {
	for _, st := range strips {
		s.res.Delivered += st.acc.delivered
		s.res.Dropped += st.acc.dropped
		s.res.WireTraversals += st.acc.wire
		s.res.Stalls += st.acc.stalls
		s.res.InjectionStalls += st.acc.injStalls
		s.res.Stats.Detours += st.acc.detours
		if st.acc.maxLatency > s.res.MaxLatencyCycles {
			s.res.MaxLatencyCycles = st.acc.maxLatency
		}
		if st.acc.maxQueue > s.res.MaxQueueLen {
			s.res.MaxQueueLen = st.acc.maxQueue
		}
		s.latencySum += st.acc.latencySum
	}
	return s.res
}

// ClampShards bounds a requested shard count to what a mesh supports: at
// least 1 and at most rows (the sharded engine needs one row strip per
// shard). CLIs use it to turn a machine-wide default like GOMAXPROCS into
// a valid Config.Shards for any mesh.
func ClampShards(n, rows int) int {
	if n < 1 {
		return 1
	}
	if n > rows {
		return rows
	}
	return n
}

// Worker phases, coordinated over one barrier each per cycle.
const (
	phaseCollect uint8 = iota // inject (when due) + collect/deliver
	phaseApply                // service the merged candidate order
)

type phaseCmd struct {
	cycle  int
	phase  uint8
	inject bool
}

// newStrips partitions the mesh's rows into cfg.Shards contiguous strips, as
// evenly as possible, and hands every strip the injection trains sourced in
// it. rowToStrip maps a mesh row to the index of the strip that owns it.
func newStrips(s *simState) (strips []*strip, rowToStrip []int) {
	shards := s.cfg.Shards
	strips = make([]*strip, shards)
	rowToStrip = make([]int, s.mesh.Rows)
	rowsPer, rem := s.mesh.Rows/shards, s.mesh.Rows%shards
	r0 := 0
	for i := range strips {
		rows := rowsPer
		if i < rem {
			rows++
		}
		lo, hi := r0*s.mesh.Cols, (r0+rows)*s.mesh.Cols
		words := (hi - lo + 63) / 64
		strips[i] = &strip{s: s, lo: lo, hi: hi,
			occ:     make([]uint8, hi-lo),
			word:    make([]uint64, words),
			summary: make([]uint64, (words+63)/64),
		}
		for r := r0; r < r0+rows; r++ {
			rowToStrip[r] = i
		}
		r0 += rows
	}
	// Relative order is preserved, so every source queue sees the
	// reference's push order. A lone strip takes the schedule uncopied.
	if shards == 1 {
		strips[0].trains = s.trains
	} else {
		for _, t := range s.trains {
			st := strips[rowToStrip[int(t.src)/s.mesh.Cols]]
			st.trains = append(st.trains, t)
		}
	}
	s.trains = nil
	return strips, rowToStrip
}

// simulateStrips is the event-driven engine, the one cycle loop for every
// shard count. It resolves the trains' first hops, splits the mesh into
// cfg.Shards strips, owns the loop (limits, watchdog, cancellation,
// termination and idle fast-forward, all computed from merged per-strip
// tallies) and steps the strips through the two phases of each cycle: one
// strip inline on the calling goroutine, two or more on one persistent
// worker goroutine each.
func simulateStrips(ctx context.Context, s *simState) (Result, error) {
	cfg := s.cfg
	s.resolveTrains()
	strips, rowToStrip := newStrips(s)

	// With bounded queues, stall decisions depend on destination-queue
	// occupancy at the candidate's exact global position, and stall chains
	// can cross strip boundaries in both directions — the coordinator
	// applies those sequentially instead.
	parallelApply := cfg.QueueCap == 0

	step := func(i int, cmd phaseCmd) {
		st := strips[i]
		switch cmd.phase {
		case phaseCollect:
			if cmd.inject {
				st.inject(cmd.cycle)
			}
			st.collect(cmd.cycle, parallelApply)
		case phaseApply:
			var above, below []ship
			if i > 0 {
				above = strips[i-1].shipDown
			}
			if i < len(strips)-1 {
				below = strips[i+1].shipUp
			}
			st.apply(cmd.cycle, above, below)
		}
	}
	runPhase := func(cmd phaseCmd) { step(0, cmd) }
	if len(strips) > 1 {
		var wg sync.WaitGroup
		cmds := make([]chan phaseCmd, len(strips))
		for i := range cmds {
			cmds[i] = make(chan phaseCmd, 1)
			go func() {
				for cmd := range cmds[i] {
					step(i, cmd)
					wg.Done()
				}
			}()
		}
		defer func() {
			for _, c := range cmds {
				close(c)
			}
		}()
		runPhase = func(cmd phaseCmd) {
			wg.Add(len(cmds))
			for _, c := range cmds {
				c <- cmd
			}
			wg.Wait()
		}
	}
	pendingTrains := func() int {
		n := 0
		for _, st := range strips {
			n += len(st.trains)
		}
		return n
	}

	// Progress is an injection, delivery or drop, not wire movement, so the
	// watchdog also catches a spike orbiting an unreachable destination.
	lastProgress := int64(-1)
	lastProgressCycle := 0
	// ffSkipped counts idle cycles jumped by fast-forward (telemetry only;
	// never part of Result — the reference oracle has no fast-forward).
	var ffSkipped int64

	for cycle := 0; ; cycle++ {
		// Merged tallies as of the end of the previous cycle (workers are
		// parked at the barrier, so reads are safe).
		var injections, delivered, dropped, exited int64
		for _, st := range strips {
			injections += st.acc.injections
			delivered += st.acc.delivered
			dropped += st.acc.dropped
			exited += st.acc.exited
		}
		inFlight := injections - exited
		dropped += s.res.Dropped // injection-time setup drops
		if cycle > cfg.MaxCycles {
			return s.mergeStrips(strips...), fmt.Errorf("noc: exceeded MaxCycles=%d with %d spikes in flight: %w", cfg.MaxCycles, inFlight, ErrLivelock)
		}
		if cycle&2047 == 0 && ctx.Err() != nil {
			return s.mergeStrips(strips...), fmt.Errorf("noc: %v after %d cycles: %w", ctx.Err(), cycle, ErrCanceled)
		}
		if progress := injections + delivered + dropped; progress != lastProgress {
			lastProgress = progress
			lastProgressCycle = cycle
		} else if cycle-lastProgressCycle > cfg.WatchdogCycles {
			return s.mergeStrips(strips...), fmt.Errorf("noc: no forward progress for %d cycles with %d spikes in flight (delivered %d, dropped %d): %w",
				cfg.WatchdogCycles, inFlight, delivered, dropped, ErrLivelock)
		}
		if cfg.Obs.Enabled() && cycle&4095 == 0 {
			cfg.Obs.Progress("noc.sim", delivered+dropped, s.res.Injected)
		}

		doInject := pendingTrains() > 0 && cycle%cfg.InjectionInterval == 0
		runPhase(phaseCmd{cycle: cycle, phase: phaseCollect, inject: doInject})

		// Termination and fast-forward use the in-flight count as the
		// reference sees it at this point: after injection but
		// before this cycle's deliveries — phase-1 deliveries are excluded
		// by using the pre-phase exit count. (If it is zero, no queue held
		// a flit, so the collect pass delivered nothing and found no
		// candidates; the phases agree exactly.)
		var enteredNow int64
		for _, st := range strips {
			enteredNow += st.acc.injections
		}
		afterInject := enteredNow - exited
		if afterInject == 0 && pendingTrains() == 0 {
			s.res.Cycles = cycle
			break
		}
		if afterInject == 0 {
			// Idle fast-forward to the next injection wave — the minimum
			// next-event cycle across strips, which under a shared
			// injection interval is the same wave for every strip. Capped
			// at MaxCycles+1 so a wave scheduled past the cycle limit
			// still fails exactly where the reference fails.
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

		if parallelApply {
			runPhase(phaseCmd{cycle: cycle, phase: phaseApply})
		} else {
			// Sequential apply: the per-strip candidate lists
			// concatenated in strip order are exactly the reference's
			// ascending-router candidate order.
			for _, st := range strips {
				for _, c := range st.cands {
					st.applyCand(c, cycle, strips[rowToStrip[int(c.to)/s.mesh.Cols]])
				}
			}
		}
	}

	s.mergeStrips(strips...)
	if cfg.Obs.Enabled() {
		cfg.Obs.Counter("noc.fastforward", obs.KV{K: "skipped_cycles", V: float64(ffSkipped)})
		emitShardCounters(cfg.Obs, strips)
		cfg.Obs.Progress("noc.sim", s.res.Delivered+s.res.Dropped, s.res.Injected)
	}
	return s.finish(), nil
}
