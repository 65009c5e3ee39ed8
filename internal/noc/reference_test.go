package noc

import (
	"context"
	"fmt"

	"snnmap/internal/pcn"
	"snnmap/internal/place"
)

// simulateReference runs the original per-cycle simulator: every cycle it
// scans all cores·5 queues and every injection train, whether occupied or
// not. It is the equivalence oracle: Simulate's engines must produce a
// bit-identical Result for every workload, mesh, defect map, routing and
// queue bound, and the suites in this package assert that against it. BenchmarkSimulateLongTail and
// BenchmarkSimulateSparse64x64 time both drivers side by side.
//
// Both drivers share simState — the injection schedule, route computation
// and all accounting — and differ only in how they find work each cycle.
func simulateReference(ctx context.Context, p *pcn.PCN, pl *place.Placement, cfg Config) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	if err := ctx.Err(); err != nil {
		return Result{}, fmt.Errorf("noc: %v: %w", err, ErrCanceled)
	}
	s, err := newSimState(p, pl, cfg)
	if err != nil {
		return Result{}, err
	}
	cfg = s.cfg

	queues := make([]queue, s.cores*5) // 4 directions + local delivery per router
	pendingTrains := len(s.trains)
	var candidates []candidate

	// Progress watchdog state: progress means an injection, delivery or
	// drop — wire movement alone does not count.
	lastProgress := int64(-1)
	lastProgressCycle := 0

	for cycle := 0; ; cycle++ {
		if cycle > cfg.MaxCycles {
			return s.res, fmt.Errorf("noc: exceeded MaxCycles=%d with %d spikes in flight: %w", cfg.MaxCycles, s.inFlight, ErrLivelock)
		}
		if cycle&2047 == 0 && ctx.Err() != nil {
			return s.res, fmt.Errorf("noc: %v after %d cycles: %w", ctx.Err(), cycle, ErrCanceled)
		}
		if progress := s.injections + s.res.Delivered + s.res.Dropped; progress != lastProgress {
			lastProgress = progress
			lastProgressCycle = cycle
		} else if cycle-lastProgressCycle > cfg.WatchdogCycles {
			return s.res, fmt.Errorf("noc: no forward progress for %d cycles with %d spikes in flight (delivered %d, dropped %d): %w",
				cfg.WatchdogCycles, s.inFlight, s.res.Delivered, s.res.Dropped, ErrLivelock)
		}
		// Inject due spikes. Exhausted trains stay in the slice and are
		// skipped — the O(total trains) cost per injection cycle the
		// event-driven engine's compaction removes.
		if pendingTrains > 0 && cycle%cfg.InjectionInterval == 0 {
			for ti := range s.trains {
				t := &s.trains[ti]
				if t.count == 0 {
					continue
				}
				f := flit{dst: t.dst, injected: int32(cycle), yx: s.orientation(t.src, t.dst)}
				port, drop, blocked := s.routePort(int(t.src), f)
				if blocked && !drop {
					f.detour = uint8(s.detourHops)
					s.res.Stats.Detours++
				}
				if drop {
					t.count--
					if t.count == 0 {
						pendingTrains--
					}
					s.res.Dropped++
					continue
				}
				q := &queues[int(t.src)*5+port]
				if cfg.QueueCap > 0 && q.len() >= cfg.QueueCap {
					s.res.InjectionStalls++
					continue
				}
				t.count--
				if t.count == 0 {
					pendingTrains--
				}
				q.push(f)
				if q.len() > s.res.MaxQueueLen {
					s.res.MaxQueueLen = q.len()
				}
				s.res.RouterTraversals[t.src]++
				s.inFlight++
				s.injections++
			}
		}
		if s.inFlight == 0 && pendingTrains == 0 {
			s.res.Cycles = cycle
			break
		}
		// Service one flit per output port, scanning every router.
		candidates = candidates[:0]
		for idx := 0; idx < s.cores; idx++ {
			base := idx * 5
			for port := 0; port < 5; port++ {
				q := &queues[base+port]
				if q.len() == 0 {
					continue
				}
				if port == local {
					s.deliver(q, cycle)
					continue
				}
				candidates = append(candidates, candidate{src: base + port, to: s.neighbor(idx, port)})
			}
		}
		for _, m := range candidates {
			src := &queues[m.src]
			f := src.peek()
			if s.defects != nil && (f.hops >= s.maxHops || cycle-int(f.injected) > cfg.WatchdogCycles) {
				src.pop()
				s.res.Dropped++
				s.inFlight--
				continue
			}
			port, drop, blocked := s.routePort(m.to, f)
			if drop {
				src.pop()
				s.res.Dropped++
				s.inFlight--
				continue
			}
			q := &queues[m.to*5+port]
			if cfg.QueueCap > 0 && q.len() >= cfg.QueueCap {
				s.res.Stalls++
				continue
			}
			src.pop()
			if blocked {
				f.detour = uint8(s.detourHops)
				s.res.Stats.Detours++
			} else if f.detour > 0 {
				f.detour--
			}
			f.hops++
			s.res.WireTraversals++
			q.push(f)
			if q.len() > s.res.MaxQueueLen {
				s.res.MaxQueueLen = q.len()
			}
			s.res.RouterTraversals[m.to]++
		}
	}

	return s.finish(), nil
}

// candidate is one queue head eligible to move this cycle.
type candidate struct {
	src int // source queue index in queues
	to  int // destination router
}
