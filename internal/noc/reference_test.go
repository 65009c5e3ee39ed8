package noc

import (
	"context"
	"fmt"
	"testing"

	"snnmap/internal/pcn"
	"snnmap/internal/place"
)

// simulateReference runs the original per-cycle simulator: every cycle it
// scans all cores·5 queues and every injection train, whether occupied or
// not. It is the equivalence oracle: Simulate's calendar engine must produce
// a bit-identical Result for every workload, mesh and defect map, and the
// suites in this package assert that against it. BenchmarkSimulateLongTail
// and BenchmarkSimulateSparse64x64 time both drivers side by side.
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
	lim := s.cfg.limits

	queues := make([]queue, s.cores*5) // 4 directions + local delivery per router
	pendingTrains := len(s.trains)
	var candidates []candidate
	// Spikes that entered the network, and those of them still in it.
	var injections, inFlight int64

	// Progress watchdog state: progress means an injection, delivery or
	// drop — wire movement alone does not count.
	lastProgress := int64(-1)
	lastProgressCycle := 0

	for cycle := 0; ; cycle++ {
		if cycle > lim.maxCycles {
			return s.res, fmt.Errorf("noc: exceeded the %d-cycle limit with %d spikes in flight: %w", lim.maxCycles, inFlight, ErrLivelock)
		}
		if cycle&2047 == 0 && ctx.Err() != nil {
			return s.res, fmt.Errorf("noc: %v after %d cycles: %w", ctx.Err(), cycle, ErrCanceled)
		}
		if progress := injections + s.res.Delivered + s.res.Dropped; progress != lastProgress {
			lastProgress = progress
			lastProgressCycle = cycle
		} else if cycle-lastProgressCycle > lim.watchdogCycles {
			return s.res, fmt.Errorf("noc: no forward progress for %d cycles with %d spikes in flight (delivered %d, dropped %d): %w",
				lim.watchdogCycles, inFlight, s.res.Delivered, s.res.Dropped, ErrLivelock)
		}
		// Inject one spike of every train. Exhausted trains stay in the
		// slice and are skipped — the O(total trains) cost per cycle the
		// calendar's compaction removes.
		for ti := range s.trains {
			t := &s.trains[ti]
			if t.count == 0 {
				continue
			}
			t.count--
			if t.count == 0 {
				pendingTrains--
			}
			f := flit{dst: t.dst, injected: int32(cycle)}
			port, drop, blocked := s.routePort(int(t.src), f)
			if drop {
				s.res.Dropped++
				continue
			}
			if blocked {
				f.detour = uint8(s.detourHops)
				s.res.Stats.Detours++
			}
			q := &queues[int(t.src)*5+port]
			q.push(f)
			if q.len() > s.res.MaxQueueLen {
				s.res.MaxQueueLen = q.len()
			}
			s.res.RouterTraversals[t.src]++
			inFlight++
			injections++
		}
		if inFlight == 0 && pendingTrains == 0 {
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
					f := q.pop()
					s.res.Delivered++
					inFlight--
					lat := int(int32(cycle) - f.injected + 1)
					s.latencySum += int64(lat)
					s.res.MaxLatencyCycles = max(s.res.MaxLatencyCycles, lat)
					continue
				}
				candidates = append(candidates, candidate{src: base + port, to: s.neighbor(idx, port)})
			}
		}
		for _, m := range candidates {
			f := queues[m.src].pop()
			if s.defects != nil && (f.hops >= s.maxHops || cycle-int(f.injected) > lim.watchdogCycles) {
				s.res.Dropped++
				inFlight--
				continue
			}
			port, drop, blocked := s.routePort(m.to, f)
			if drop {
				s.res.Dropped++
				inFlight--
				continue
			}
			if blocked {
				f.detour = uint8(s.detourHops)
				s.res.Stats.Detours++
			} else if f.detour > 0 {
				f.detour--
			}
			f.hops++
			s.res.WireTraversals++
			q := &queues[m.to*5+port]
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

// FuzzQueueRing drives the ring-buffer queue with a random script and checks
// every pop, peek and len against a plain-slice FIFO. Each script byte is one
// step: the top two bits pick push/push/pop/peek, the low six a repeat count
// (1–64), so a few bytes reach several doublings.
func FuzzQueueRing(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x03, 0x81, 0x01, 0x00}) // push 4, pop 2, push 2 (full and wrapped), push 1: grows while wrapped
	f.Add([]byte{0x07, 0x87, 0x07, 0x87}) // drain to empty with the head mid-ring, refill, drain again
	f.Add([]byte{0x3f, 0xa0, 0x3f, 0x3f, 0xbf, 0xbf, 0xbf, 0xc0, 0x10, 0x9f})
	f.Fuzz(func(t *testing.T, script []byte) {
		var q queue
		var model []flit
		next := int32(0)
		for step, b := range script {
			for rep := int(b&63) + 1; rep > 0; rep-- {
				switch b >> 6 {
				case 0, 1:
					fl := flit{dst: next, injected: ^next, hops: next >> 3, detour: uint8(next), slot: uint8(next >> 1)}
					next++
					q.push(fl)
					model = append(model, fl)
				case 2:
					if len(model) == 0 {
						continue
					}
					if got := q.pop(); got != model[0] {
						t.Fatalf("step %d: pop = %+v, want %+v", step, got, model[0])
					}
					model = model[1:]
				case 3:
					if len(model) > 0 && q.peek() != model[0] {
						t.Fatalf("step %d: peek = %+v, want %+v", step, q.peek(), model[0])
					}
				}
				if q.len() != len(model) {
					t.Fatalf("step %d: len = %d, want %d", step, q.len(), len(model))
				}
				if n := len(q.buf); n&(n-1) != 0 || n < len(model) {
					t.Fatalf("step %d: ring of %d slots holds %d flits", step, n, len(model))
				}
			}
		}
		for i, want := range model {
			if got := q.pop(); got != want {
				t.Fatalf("final drain %d: pop = %+v, want %+v", i, got, want)
			}
		}
	})
}
