package noc

import (
	"context"
	"reflect"
	"testing"

	"snnmap/internal/hw"
)

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
					fl := flit{dst: next, injected: ^next, hops: next >> 3, detour: uint8(next), yx: next&1 == 1}
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

// checkOccupancy asserts the worklist invariants for every router: occ bit
// ⇔ non-empty queue, word bit ⇔ occ != 0, summary bit ⇔ word != 0. Whole
// words are compared, so a stray bit past the last router fails too.
func checkOccupancy(t *testing.T, cycle int, e *queueEngine) {
	t.Helper()
	wantWord := make([]uint64, len(e.word))
	for r := range e.occ {
		var want uint8
		for port := 0; port < 5; port++ {
			if e.queues[r*5+port].len() > 0 {
				want |= 1 << port
			}
		}
		if e.occ[r] != want {
			t.Fatalf("cycle %d router %d: occ %05b, non-empty ports %05b", cycle, r, e.occ[r], want)
		}
		if want != 0 {
			wantWord[r>>6] |= 1 << (r & 63)
		}
	}
	wantSummary := make([]uint64, len(e.summary))
	for w, word := range e.word {
		if word != wantWord[w] {
			t.Fatalf("cycle %d word %d: %064b, want %064b", cycle, w, word, wantWord[w])
		}
		if word != 0 {
			wantSummary[w>>6] |= 1 << (w & 63)
		}
	}
	for i, sum := range e.summary {
		if sum != wantSummary[i] {
			t.Fatalf("cycle %d summary %d: %064b, want %064b", cycle, i, sum, wantSummary[i])
		}
	}
}

// TestOccupancyMatchesQueues steps the queue engine's primitives by hand —
// the inject/collect/apply sequence it issues — over a faulted fault-aware
// run with a queue bound that stalls both injections and hops, and checks
// the worklist against the queues after every phase of every cycle. The
// final tallies must equal the reference's, which ties the hand-driven loop
// to the real engine.
func TestOccupancyMatchesQueues(t *testing.T) {
	p, pl := faultedLinksWorkload(t)
	cfg := Config{QueueCap: 16, FaultAware: true, Defects: faultedLinksDefects(t, pl.Mesh),
		WatchdogCycles: 2000} // the age cap clears the detours' jams
	want, err := simulateReference(context.Background(), p, pl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want.Stalls == 0 || want.InjectionStalls == 0 {
		t.Fatalf("queue bound never bit: %+v", want)
	}
	s, err := newSimState(p, pl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.resolveTrains()
	e := newQueueEngine(s)
	cycle := 0
	for ; ; cycle++ {
		if cycle > 100_000 {
			t.Fatal("did not drain")
		}
		e.inject(cycle)
		checkOccupancy(t, cycle, e)
		if len(e.trains) == 0 && e.acc.injections == e.acc.exited {
			break
		}
		e.collect(cycle)
		checkOccupancy(t, cycle, e)
		for _, c := range e.cands {
			e.applyCand(c, cycle)
		}
		checkOccupancy(t, cycle, e)
	}
	s.res.Cycles = cycle
	s.merge(&e.acc)
	if got := s.finish(); !reflect.DeepEqual(got, want) {
		t.Errorf("hand-driven run diverges from the reference:\ngot  %+v\nwant %+v", got, want)
	}
}

// TestApplyPushServicedNextCycle pins the snapshot-before-apply rule on a
// three-router chain: a flit that apply moves into router 1 in some cycle is
// not seen by that cycle's scan, although router 1 sorts after router 0. An
// engine that scanned live state would carry each flit down the whole chain
// in one cycle (Cycles == spikes, latency 1).
func TestApplyPushServicedNextCycle(t *testing.T) {
	const spikes = 5
	p := edgePCN(t, [][3]float64{{0, 1, spikes}}, 2)
	mesh := hw.MustMesh(1, 3)
	pl := placeAt(t, p, mesh, mesh.Coord(0), mesh.Coord(2))
	for _, run := range []func() (Result, error){
		func() (Result, error) { return Simulate(p, pl, Config{}) },
		func() (Result, error) { return simulateReference(context.Background(), p, pl, Config{}) },
	} {
		res, err := run()
		if err != nil {
			t.Fatal(err)
		}
		// One hop per cycle: spike k is injected in cycle k, delivered in
		// cycle k+2, and the run ends the cycle after the last delivery.
		// The peak is 2, not 1: candidates are applied in ascending router
		// order, so router 0's move lands in router 1's queue before router
		// 1's own head, collected in the same snapshot, is popped.
		if res.Cycles != spikes+2 || res.MaxLatencyCycles != 3 || res.AvgLatencyCycles != 3 || res.MaxQueueLen != 2 {
			t.Errorf("Cycles=%d MaxLatency=%d AvgLatency=%g MaxQueueLen=%d, want %d/3/3/2",
				res.Cycles, res.MaxLatencyCycles, res.AvgLatencyCycles, res.MaxQueueLen, spikes+2)
		}
	}
}
