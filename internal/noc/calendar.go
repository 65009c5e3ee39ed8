package noc

import "snnmap/internal/geom"

// This file implements the calendar engine, which runs every simulation.
//
// With unbounded queues an output port is a FIFO that releases exactly one
// flit in every cycle it is non-empty, so a flit's departure cycle is fixed
// when it is pushed: d = max(earliest, last[q]+1), where earliest is t for an
// injection in cycle t (injection precedes the cycle's service scan) and t+1
// for a hop in cycle t (a port filled during service is first scanned next
// cycle). The engine therefore keeps no queues: each flit is stored once per
// hop, in the bucket of its departure cycle, and a cycle is the stream of its
// bucket. Per queue it keeps only busyRun, from which the queue's length at
// every push — and so MaxQueueLen — follows in closed form.
//
// Three invariants tie it to the reference scan (DESIGN.md §11):
//
//   - Departure rule: d = max(earliest, next) as above.
//   - Queue-length rule: the flits in q after a push are those of its busy
//     run that depart at or after gone, the first departure not yet
//     serviced. For an injection in cycle t, gone = t. For a hop in cycle t
//     out of queue sq, the reference has already popped q's cycle-t flit when
//     q is a local port (delivered during the scan) or q < sq (serviced
//     earlier in ascending candidate order): gone = t+1 then, else t.
//   - Bucket order: pushes into one queue in one cycle must land in the
//     reference's order — injections in train order, then hops in ascending
//     source-queue index. A router's only hop sources are its four
//     neighbours, whose queue indices rise from above (their Down port), left
//     (Right), right (Left) to below (Up); so each cycle is serviced port by
//     port in that order, and within one port's bucket order is immaterial
//     (each destination queue receives at most one of its flits).
//
// Buckets: the current 64-cycle window has one bucket per (cycle, source
// port); each later window has one coarse bucket, whose entries carry their
// cycle offset (flit.slot) and move down into the fine buckets when the
// window is entered. Entries live in fixed-size chunks recycled through a
// free list, so the calendar's memory follows the flits in flight, and each
// flit is written straight into its entry (see file).

const (
	calWindowBits = 6
	calWindow     = 1 << calWindowBits
	calChunkLen   = 256 // entries per chunk
)

// servicePorts is the order a cycle's buckets are serviced in: deliveries,
// then hops by ascending source-queue index at every destination (see the
// bucket-order invariant above).
var servicePorts = [...]int{local, int(geom.Down), int(geom.Right), int(geom.Left), int(geom.Up)}

// calEntry is a flit waiting in the calendar to leave queue q (router q/5,
// port q%5) in its bucket's cycle.
type calEntry struct {
	f flit
	q int32
}

// bucket holds calEntries in chunks; the order of entries carries no meaning.
type bucket struct {
	full [][]calEntry // filled chunks
	cur  []calEntry   // chunk being filled: nil or capacity calChunkLen
}

// busyRun is a queue's departure state: next is one past its last booked
// departure, and start is the first departure of the run of consecutive
// departures that ends at next-1. Both are uint32: a departure is at most
// maxCycles + maxSpikes, and book stays exact up to 2^32-2.
type busyRun struct{ next, start uint32 }

// book assigns the departure of a flit pushed onto the queue, leaving no
// earlier than earliest, and returns it with the queue's length right after
// the push, counting only flits that leave at or after gone.
func (r *busyRun) book(earliest, gone uint32) (d uint32, n int) {
	d = r.next
	if earliest > d {
		// The queue will have drained before the flit can leave: a new
		// busy run starts with it.
		d = earliest
		r.start = d
	}
	r.next = d + 1
	return d, int(d-max(r.start, gone)) + 1
}

// calendar is the simulation engine (see the file comment); simState.run
// drives it one cycle at a time.
type calendar struct {
	s      *simState
	trains []train
	step   [4]int // router index change across each mesh port
	runs   []busyRun
	win    uint32 // current window: cycles [win·64, win·64+63]
	fine   [calWindow * 5]bucket
	ring   []bucket // windows after win; window w at w & (len-1)
	free   [][]calEntry
	acc    accum
}

func newCalendar(s *simState) *calendar {
	cols := s.mesh.Cols
	c := &calendar{s: s, trains: s.trains, runs: make([]busyRun, s.cores*5)}
	c.step[geom.Up], c.step[geom.Down], c.step[geom.Right], c.step[geom.Left] = -cols, cols, 1, -1
	s.trains = nil
	return c
}

// begin enters cycle's window and runs the injection wave.
func (c *calendar) begin(cycle int) {
	if w := uint32(cycle) >> calWindowBits; w != c.win {
		c.win = w
		if len(c.ring) > 0 {
			b := &c.ring[w&uint32(len(c.ring)-1)]
			for _, ch := range b.full {
				c.spread(ch)
			}
			c.spread(b.cur)
			c.release(b)
		}
	}
	if len(c.trains) > 0 {
		c.inject(cycle)
	}
}

// spread moves entries of the window just entered into their fine buckets.
func (c *calendar) spread(es []calEntry) {
	for i := range es {
		*c.grow(&c.fine[int(es[i].f.slot)*5+int(es[i].q)%5]) = es[i]
	}
}

// inject runs one injection wave: every train's next spike is dropped (no
// usable first hop) or booked on its source queue, and exhausted trains are
// compacted out in order.
func (c *calendar) inject(cycle int) {
	s, t := c.s, uint32(cycle)
	w := 0
	for _, tr := range c.trains {
		if f, ok := s.take(&c.acc, &tr, cycle); ok {
			e, slot := c.file(int(tr.src)*5+int(tr.port), int(tr.port), t, t)
			e.f.dst, e.f.injected, e.f.hops, e.f.detour, e.f.slot = f.dst, f.injected, 0, f.detour, slot
			s.res.RouterTraversals[tr.src]++
		}
		if tr.count > 0 {
			c.trains[w] = tr
			w++
		}
	}
	c.trains = c.trains[:w]
}

// service delivers, moves or drops every flit that departs in cycle.
func (c *calendar) service(cycle int) {
	base := (cycle & (calWindow - 1)) * 5
	for _, port := range servicePorts {
		b := &c.fine[base+port]
		for _, ch := range b.full {
			c.leave(ch, port, cycle)
		}
		c.leave(b.cur, port, cycle)
		c.release(b)
	}
}

// leave services flits departing through port in cycle.
func (c *calendar) leave(es []calEntry, port, cycle int) {
	s, a := c.s, &c.acc
	if port == local {
		for i := range es {
			a.deliver(cycle, es[i].f.injected)
		}
		return
	}
	t := uint32(cycle)
	for i := range es {
		f, sq := es[i].f, int(es[i].q)
		to := sq/5 + c.step[port]
		out, drop, blocked := s.hop(&f, to, cycle)
		if drop {
			a.dropped++
			a.exited++
			continue
		}
		if blocked {
			a.detours++
		}
		a.wire++
		q, gone := to*5+out, t
		if out == local || q < sq {
			gone = t + 1
		}
		// Copy the flit from its old entry, whose bytes were stored long
		// ago, and patch what hop advanced in f with narrow stores.
		e, slot := c.file(q, out, t+1, gone)
		e.f = es[i].f
		e.f.hops, e.f.detour, e.f.slot = f.hops, f.detour, slot
		s.res.RouterTraversals[to]++
	}
}

// file books a flit on queue q (output port of its router), leaving no
// earlier than earliest (gone as in busyRun.book), and appends an entry for
// it to the bucket of its departure cycle. It returns that entry, with only
// q set, and the departure's slot: the caller writes the flit into the entry
// in place. Building the flit first and passing it by value would store its
// slot byte and then read all 16 bytes back to copy them, the stall hop's
// *flit avoids.
func (c *calendar) file(q, port int, earliest, gone uint32) (*calEntry, uint8) {
	d, n := c.runs[q].book(earliest, gone)
	c.acc.maxQueue = max(c.acc.maxQueue, n)
	slot := uint8(d & (calWindow - 1))
	var b *bucket
	if w := d >> calWindowBits; w == c.win {
		b = &c.fine[int(slot)*5+port]
	} else {
		b = c.later(w)
	}
	e := c.grow(b)
	e.q = int32(q)
	return e, slot
}

// grow appends an entry to b and returns it. A chunk from the free list
// holds stale entries, so the caller writes every field.
func (c *calendar) grow(b *bucket) *calEntry {
	if len(b.cur) == cap(b.cur) {
		if b.cur != nil {
			b.full = append(b.full, b.cur)
		}
		if n := len(c.free); n > 0 {
			b.cur, c.free = c.free[n-1], c.free[:n-1]
		} else {
			b.cur = make([]calEntry, 0, calChunkLen)
		}
	}
	b.cur = b.cur[:len(b.cur)+1]
	return &b.cur[len(b.cur)-1]
}

// release returns a serviced bucket's chunks to the free list.
func (c *calendar) release(b *bucket) {
	for _, ch := range b.full {
		c.free = append(c.free, ch[:0])
	}
	if b.cur != nil {
		c.free = append(c.free, b.cur[:0])
	}
	b.full, b.cur = b.full[:0], nil
}

// later returns the coarse bucket of window w > win, growing the ring when w
// lies beyond it. The ring holds windows win+1 … win+len-1 at w & (len-1).
func (c *calendar) later(w uint32) *bucket {
	if int(w-c.win) >= len(c.ring) {
		n := max(2*len(c.ring), 8)
		for int(w-c.win) >= n {
			n *= 2
		}
		ring := make([]bucket, n)
		for v := c.win + 1; int(v-c.win) < len(c.ring); v++ {
			ring[v&uint32(n-1)] = c.ring[v&uint32(len(c.ring)-1)]
		}
		c.ring = ring
	}
	return &c.ring[w&uint32(len(c.ring)-1)]
}
