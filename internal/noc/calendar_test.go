package noc

import (
	"context"
	"math"
	"reflect"
	"testing"

	"snnmap/internal/geom"
	"snnmap/internal/hw"
)

// FuzzCalendarMatchesReference draws a small random mesh, net and placement,
// a routing, a defect map with or without fault-aware routing, and the
// injection, spike and watchdog knobs, and holds the calendar engine's full
// Result and error text to the per-cycle reference scan.
func FuzzCalendarMatchesReference(f *testing.F) {
	f.Add(int64(1), uint8(0x00), uint8(0x00), uint8(0x00))
	f.Add(int64(2), uint8(0x5a), uint8(0x13), uint8(0x81))
	f.Add(int64(3), uint8(0xff), uint8(0x2e), uint8(0x47))
	f.Add(int64(4), uint8(0x37), uint8(0xc4), uint8(0xf2))
	f.Fuzz(func(t *testing.T, seed int64, shape, faults, knobs uint8) {
		rows, cols := int(shape&7)+1, int(shape>>3&7)+1
		clusters := min(rows*cols, int(shape>>6)*4+2)
		p, pl := randomCorpusWorkload(t, seed, rows, cols, clusters, 6*clusters)
		cfg := Config{
			Routing:           Routing(knobs % 3),
			InjectionInterval: []int{0, 1, 3, 40}[knobs>>2&3],
			SpikesPerUnit:     []float64{0, 0.5, 2, 4}[knobs>>4&3],
			WatchdogCycles:    []int{0, 2, 30, 400}[knobs>>6],
		}
		if faults&3 != 0 {
			dead := float64(faults>>2&3) * 0.05
			links := float64(faults>>4&3) * 0.06
			cfg.Defects = hw.InjectUniform(pl.Mesh, dead, links, seed)
			cfg.FaultAware = faults&3 != 1
		}
		if faults>>6 == 3 {
			cfg.MaxCycles = int(seed&63) + 1
		}
		got, errGot := Simulate(p, pl, cfg)
		want, errWant := simulateReference(context.Background(), p, pl, cfg)
		if (errGot == nil) != (errWant == nil) || errGot != nil && errGot.Error() != errWant.Error() {
			t.Fatalf("%+v: error mismatch:\ncalendar:  %v\nreference: %v", cfg, errGot, errWant)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%+v: Result mismatch:\ncalendar:  %+v\nreference: %+v", cfg, got, want)
		}
	})
}

// TestCalendarSameCycleArrivals pins the bucket order and the coarse
// windows. Three streams of equal length meet at router (2,2) of a 5×5 mesh
// from its top, left and right neighbours, every cycle, and all turn into
// its Down port: three flits enter one port per cycle and one leaves, so the
// queue grows by two a cycle, far past the 64-cycle window, and the order the
// three enter in decides which of two destinations below each reaches when.
func TestCalendarSameCycleArrivals(t *testing.T) {
	const spikes = 150
	p := edgePCN(t, [][3]float64{{0, 3, spikes}, {1, 4, spikes}, {2, 3, spikes}}, 5)
	mesh := hw.MustMesh(5, 5)
	pl := placeAt(t, p, mesh,
		geom.Point{X: 0, Y: 2}, geom.Point{X: 2, Y: 0}, geom.Point{X: 2, Y: 4}, // top, left, right
		geom.Point{X: 4, Y: 2}, geom.Point{X: 3, Y: 2}) // destinations below
	want, err := simulateReference(context.Background(), p, pl, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Two flits of net growth per cycle while the streams last.
	if want.MaxQueueLen < 2*spikes-2 {
		t.Fatalf("MaxQueueLen = %d; three same-cycle arrivals per cycle should build %d", want.MaxQueueLen, 2*spikes-2)
	}
	got, err := Simulate(p, pl, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("calendar diverges from the reference:\ngot  %+v\nwant %+v", got, want)
	}
}

// TestBusyRunBooksPastInt32: a departure can reach MaxCycles + MaxSpikes (a
// hop in the last allowed cycle, queued behind MaxSpikes-1 flits), which
// passes MaxInt32 when both limits sit at theirs. busyRun keeps it, and the
// queue length, exact up to that last departure.
func TestBusyRunBooksPastInt32(t *testing.T) {
	const last = math.MaxInt32 // MaxCycles and MaxSpikes at their limit
	r := busyRun{next: last + last, start: last}
	d, n := r.book(last+1, last+1) // a hop in cycle MaxCycles
	if d != last+last || n != last || r.next != 1<<32-1 {
		t.Fatalf("book = (%d, %d), next %d; want (%d, %d), next %d", d, n, r.next, uint32(last+last), last, uint32(1<<32-1))
	}
	// A new run starting past MaxInt32 counts from its own start.
	r = busyRun{next: 5, start: 1}
	if d, n := r.book(last+7, last+6); d != last+7 || n != 1 || r.start != last+7 {
		t.Fatalf("new run: book = (%d, %d), start %d; want (%d, 1), start %d", d, n, r.start, uint32(last+7), uint32(last+7))
	}
}
