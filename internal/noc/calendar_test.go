package noc

import (
	"context"
	"math"
	"reflect"
	"testing"

	"snnmap/internal/geom"
	"snnmap/internal/hw"
	"snnmap/internal/pcn"
	"snnmap/internal/place"
)

// FuzzCalendarMatchesReference draws a small random mesh, net and placement,
// a defect map (or none), the spike scale and the watchdog and detour
// limits, and holds the calendar engine's full Result
// and error text to the per-cycle reference scan.
func FuzzCalendarMatchesReference(f *testing.F) {
	f.Add(int64(1), uint8(0x00), uint8(0x00), uint8(0x00))
	f.Add(int64(2), uint8(0x5a), uint8(0x13), uint8(0x81))
	f.Add(int64(3), uint8(0xff), uint8(0x2e), uint8(0x47))
	f.Add(int64(4), uint8(0x37), uint8(0xc4), uint8(0xf2))
	f.Add(coarseDetours.seed, coarseDetours.shape, coarseDetours.faults, coarseDetours.knobs)
	f.Fuzz(func(t *testing.T, seed int64, shape, faults, knobs uint8) {
		p, pl, cfg := fuzzCase(t, seed, shape, faults, knobs)
		calendarMatchesReference(t, p, pl, cfg)
	})
}

// fuzzCase decodes one FuzzCalendarMatchesReference input into a workload
// and its configuration. The spike scale of 16 queues flits far past the
// 64-cycle window, so coarse buckets fill and spread moves their entries.
func fuzzCase(t testing.TB, seed int64, shape, faults, knobs uint8) (*pcn.PCN, *place.Placement, Config) {
	rows, cols := int(shape&7)+1, int(shape>>3&7)+1
	clusters := min(rows*cols, int(shape>>6)*4+2)
	p, pl := randomCorpusWorkload(t, seed, rows, cols, clusters, 6*clusters)
	cfg := Config{
		SpikesPerUnit: []float64{0, 0.5, 2, 16}[knobs>>4&3],
		limits: limits{
			maxDetourHops:  []int{0, 1, 4, 12}[knobs&3],
			watchdogCycles: []int{0, 2, 30, 400}[knobs>>6],
		},
	}
	if faults&3 != 0 {
		dead := float64(faults>>2&3) * 0.05
		links := float64(faults>>4&3) * 0.06
		cfg.Defects = hw.InjectUniform(pl.Mesh, dead, links, seed)
	}
	if faults>>6 == 3 {
		cfg.limits.maxCycles = int(seed&63) + 1
	}
	return p, pl, cfg
}

// calendarMatchesReference runs both engines and fails unless their Results
// and error texts agree; it returns the reference's Result.
func calendarMatchesReference(t testing.TB, p *pcn.PCN, pl *place.Placement, cfg Config) Result {
	t.Helper()
	got, errGot := Simulate(p, pl, cfg)
	want, errWant := simulateReference(context.Background(), p, pl, cfg)
	if (errGot == nil) != (errWant == nil) || errGot != nil && errGot.Error() != errWant.Error() {
		t.Fatalf("%+v: error mismatch:\ncalendar:  %v\nreference: %v", cfg, errGot, errWant)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%+v: Result mismatch:\ncalendar:  %+v\nreference: %+v", cfg, got, want)
	}
	return want
}

// coarseDetours is the fuzz seed on a faulty mesh whose queues grow past the
// 64-cycle window while flits detour, so every run of the seed corpus files
// detoured flits in coarse buckets and spread moves them into fine ones.
var coarseDetours = struct {
	seed                 int64
	shape, faults, knobs uint8
}{1, 0xbf, 0x25, 0x30}

// TestCalendarCorpusReachesCoarseDetours holds coarseDetours to its
// purpose: the reference's peak queue exceeds the window and some flit
// detours, and the calendar matches the reference on it.
func TestCalendarCorpusReachesCoarseDetours(t *testing.T) {
	c := coarseDetours
	p, pl, cfg := fuzzCase(t, c.seed, c.shape, c.faults, c.knobs)
	if cfg.Defects == nil {
		t.Fatal("coarseDetours runs on a pristine mesh")
	}
	want := calendarMatchesReference(t, p, pl, cfg)
	if want.MaxQueueLen <= calWindow || want.Stats.Detours == 0 {
		t.Fatalf("MaxQueueLen %d, Detours %d: want a queue deeper than %d and a detour", want.MaxQueueLen, want.Stats.Detours, calWindow)
	}
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

// TestBusyRunBooksPastInt32: a departure can reach maxCycles + maxSpikes (a
// hop in the last allowed cycle, queued behind maxSpikes-1 flits). busyRun
// keeps it, and the queue length, exact even past MaxInt32, so limits up to
// MaxInt32 each would still book correctly.
func TestBusyRunBooksPastInt32(t *testing.T) {
	const last = math.MaxInt32 // maxCycles and maxSpikes at MaxInt32
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

// TestApplyPushServicedNextCycle pins the next-cycle rule on a three-router
// chain: a flit moved into router 1 in some cycle first leaves it the next
// cycle, although router 1 sorts after router 0 in the reference's scan. A
// driver that serviced live state would carry each flit down the whole chain
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
		// The peak is 2, not 1: the reference applies candidates in
		// ascending router order, so router 0's move lands in router 1's
		// queue before router 1's own head, collected in the same scan, is
		// popped (the calendar's queue-length rule, gone = t for q > sq).
		if res.Cycles != spikes+2 || res.MaxLatencyCycles != 3 || res.AvgLatencyCycles != 3 || res.MaxQueueLen != 2 {
			t.Errorf("Cycles=%d MaxLatency=%d AvgLatency=%g MaxQueueLen=%d, want %d/3/3/2",
				res.Cycles, res.MaxLatencyCycles, res.AvgLatencyCycles, res.MaxQueueLen, spikes+2)
		}
	}
}
