package noc

import "math/bits"

// This file implements the queue engine, which runs every simulation with
// bounded queues (QueueCap > 0; unbounded runs take the calendar engine,
// calendar.go). A flit's move then depends on its destination queue's
// occupancy at its exact position in the reference's ascending-router
// service order, since a full queue stalls it and stalls chain, so the engine
// keeps every port's FIFO and replays that order: each cycle it injects,
// scans the occupied ports (delivering local flits and collecting one
// candidate per occupied output port), then applies the candidates one by one
// in scan order on the calling goroutine.

// cand is one queue head eligible to move this cycle.
type cand struct {
	src int32 // source queue index in queueEngine.queues
	to  int32 // destination router
}

// queueEngine is the bounded-queue engine; it implements engine for
// simState.run.
//
// Its worklist is three levels: occ[r] has bit p set iff port p's queue of
// router r is non-empty, word[r/64] has bit r%64 set iff occ[r] != 0, and
// summary[w/64] has bit w%64 set iff word[w] != 0. push and pop are the only
// writers, and every queue operation of the engine goes through them.
type queueEngine struct {
	s       *simState
	queues  []queue // cores*5: 4 directions + local delivery per router
	trains  []train // injection trains with spikes left, original order
	occ     []uint8
	word    []uint64
	summary []uint64
	cands   []cand
	acc     accum
}

func newQueueEngine(s *simState) *queueEngine {
	words := (s.cores + 63) / 64
	e := &queueEngine{s: s, trains: s.trains,
		queues:  make([]queue, s.cores*5),
		occ:     make([]uint8, s.cores),
		word:    make([]uint64, words),
		summary: make([]uint64, (words+63)/64),
	}
	s.trains = nil
	return e
}

// push appends f to output port's queue of router idx and accounts the
// router traversal the push stands for.
func (e *queueEngine) push(idx, port int, f flit) {
	q := &e.queues[idx*5+port]
	q.push(f)
	e.acc.maxQueue = max(e.acc.maxQueue, q.len())
	e.s.res.RouterTraversals[idx]++
	if e.occ[idx] == 0 {
		if e.word[idx>>6] == 0 {
			e.summary[idx>>12] |= 1 << (idx >> 6 & 63)
		}
		e.word[idx>>6] |= 1 << (idx & 63)
	}
	e.occ[idx] |= 1 << port
}

// pop removes the head of queue qi. It takes the queue index candidates
// carry: the router and port are needed only when the queue drains.
func (e *queueEngine) pop(qi int) flit {
	q := &e.queues[qi]
	f := q.pop()
	if q.len() == 0 {
		idx := qi / 5
		if e.occ[idx] &^= 1 << (qi - idx*5); e.occ[idx] == 0 {
			if e.word[idx>>6] &^= 1 << (idx & 63); e.word[idx>>6] == 0 {
				e.summary[idx>>12] &^= 1 << (idx >> 6 & 63)
			}
		}
	}
	return f
}

// inject runs one injection wave: due spikes enter their source router's
// queues, a full source queue defers the injection, and exhausted trains are
// compacted out in the same order-preserving pass.
func (e *queueEngine) inject(cycle int) {
	w := 0
	for _, t := range e.trains {
		full := e.queues[int(t.src)*5+int(t.port)].len() >= e.s.cfg.QueueCap
		if f, ok := e.s.take(&e.acc, &t, cycle, full); ok {
			e.push(int(t.src), int(t.port), f)
		}
		if t.count > 0 {
			e.trains[w] = t
			w++
		}
	}
	e.trains = e.trains[:w]
}

// collect scans the occupied ports in ascending (router, port) order — the
// bit order of the worklist and the reference's service order — delivering
// one flit per local queue and gathering one candidate per occupied output
// port. Each level is read into a local before it is walked and collect
// pushes nothing, so the scan is a snapshot: a port that service makes
// non-empty is first serviced next cycle.
func (e *queueEngine) collect(cycle int) {
	e.cands = e.cands[:0]
	for si, sum := range e.summary {
		for ; sum != 0; sum &= sum - 1 {
			wi := si<<6 | bits.TrailingZeros64(sum)
			for word := e.word[wi]; word != 0; word &= word - 1 {
				idx := wi<<6 | bits.TrailingZeros64(word)
				for occ := e.occ[idx]; occ != 0; occ &= occ - 1 {
					port := bits.TrailingZeros8(occ)
					qi := idx*5 + port
					if port == local {
						e.acc.deliver(cycle, e.pop(qi).injected)
						continue
					}
					e.cands = append(e.cands, cand{src: int32(qi), to: int32(e.s.neighbor(idx, port))})
				}
			}
		}
	}
}

// applyCand services one candidate: the flit is dropped (detour TTL or
// fault), stalled (full queue), or moved one hop.
func (e *queueEngine) applyCand(c cand, cycle int) {
	s := e.s
	f := e.queues[c.src].peek()
	port, drop, blocked := s.hop(&f, int(c.to), cycle)
	if drop {
		e.pop(int(c.src))
		e.acc.dropped++
		e.acc.exited++
		return
	}
	if e.queues[int(c.to)*5+port].len() >= s.cfg.QueueCap {
		e.acc.stalls++
		return
	}
	e.pop(int(c.src))
	if blocked {
		e.acc.detours++
	}
	e.acc.wire++
	e.push(int(c.to), port, f)
}

func (e *queueEngine) tallies() *accum { return &e.acc }

func (e *queueEngine) pending() bool { return len(e.trains) > 0 }

// begin runs the injection wave when inject is set, then the collect/deliver
// scan.
func (e *queueEngine) begin(cycle int, inject bool) {
	if inject {
		e.inject(cycle)
	}
	e.collect(cycle)
}

// service applies the collected candidates in scan order.
func (e *queueEngine) service(cycle int) {
	for _, c := range e.cands {
		e.applyCand(c, cycle)
	}
}
