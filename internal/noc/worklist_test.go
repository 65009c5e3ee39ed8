package noc

import (
	"context"
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

// checkOccupancy asserts the worklist invariants for every router of every
// strip: occ bit ⇔ non-empty queue, word bit ⇔ occ != 0, summary bit ⇔
// word != 0. Whole words are compared, so a stray bit past the strip's last
// router fails too.
func checkOccupancy(t *testing.T, cycle int, strips []*strip) {
	t.Helper()
	for si, st := range strips {
		wantWord := make([]uint64, len(st.word))
		for r := range st.occ {
			var want uint8
			for port := 0; port < 5; port++ {
				if st.s.queues[(st.lo+r)*5+port].len() > 0 {
					want |= 1 << port
				}
			}
			if st.occ[r] != want {
				t.Fatalf("cycle %d strip %d router %d: occ %05b, non-empty ports %05b", cycle, si, st.lo+r, st.occ[r], want)
			}
			if want != 0 {
				wantWord[r>>6] |= 1 << (r & 63)
			}
		}
		wantSummary := make([]uint64, len(st.summary))
		for w, word := range st.word {
			if word != wantWord[w] {
				t.Fatalf("cycle %d strip %d word %d: %064b, want %064b", cycle, si, w, word, wantWord[w])
			}
			if word != 0 {
				wantSummary[w>>6] |= 1 << (w & 63)
			}
		}
		for i, sum := range st.summary {
			if sum != wantSummary[i] {
				t.Fatalf("cycle %d strip %d summary %d: %064b, want %064b", cycle, si, i, sum, wantSummary[i])
			}
		}
	}
}

// TestOccupancyMatchesQueues steps the strip primitives by hand — the same
// inject/collect/apply sequence the drivers issue, strips taken in order
// instead of concurrently — over a faulted fault-aware run, and checks the
// worklist against the queues after every phase of every cycle. The final
// tallies must equal the reference's, which ties the hand-driven loop to the
// real engine.
func TestOccupancyMatchesQueues(t *testing.T) {
	p, pl := faultedLinksWorkload(t)
	base := Config{FaultAware: true, Defects: faultedLinksDefects(t, pl.Mesh)}
	want, err := SimulateReference(context.Background(), p, pl, base)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range shardSweep {
		cfg := base
		cfg.Shards = shards
		s, err := newSimState(p, pl, cfg)
		if err != nil {
			t.Fatal(err)
		}
		s.resolveTrains()
		strips, _ := newStrips(s)
		cycle := 0
		for ; ; cycle++ {
			if cycle > 100_000 {
				t.Fatalf("shards=%d: did not drain", shards)
			}
			pending, inFlight := 0, int64(0)
			for _, st := range strips {
				st.inject(cycle)
				pending += len(st.trains)
				inFlight += st.acc.injections - st.acc.exited
			}
			checkOccupancy(t, cycle, strips)
			if pending == 0 && inFlight == 0 {
				break
			}
			for _, st := range strips {
				st.collect(cycle, shards > 1)
			}
			checkOccupancy(t, cycle, strips)
			for i, st := range strips {
				var above, below []ship
				if i > 0 {
					above = strips[i-1].shipDown
				}
				if i < len(strips)-1 {
					below = strips[i+1].shipUp
				}
				st.apply(cycle, above, below)
			}
			checkOccupancy(t, cycle, strips)
		}
		s.res.Cycles = cycle
		s.mergeStrips(strips...)
		got := s.finish()
		if got.Delivered != want.Delivered || got.Dropped != want.Dropped || got.Cycles != want.Cycles ||
			got.WireTraversals != want.WireTraversals || got.MaxQueueLen != want.MaxQueueLen || got.Stats != want.Stats {
			t.Errorf("shards=%d: hand-driven run diverges from the reference:\ngot  %+v\nwant %+v", shards, got, want)
		}
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
		func() (Result, error) { return SimulateReference(context.Background(), p, pl, Config{}) },
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
