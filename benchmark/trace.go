package main

import (
	"encoding/json"
	"os"
	"runtime"
	"time"
)

// span is one recorded call into a layer: name, start, end, and the span
// that caused it. Times are offsets from the recorder's epoch.
type span struct {
	id, parent int // parent is -1 for a root
	name       string
	start, end time.Duration
	// allocBytes is the heap volume allocated between start and end
	// (MemStats.TotalAlloc delta, all goroutines).
	allocBytes uint64
}

func (s span) dur() time.Duration { return s.end - s.start }

// recorder keeps the spans of one traced repetition in memory; they are
// written out once the repetition has ended. A nil *recorder records
// nothing, so the timed repetitions run the same code with tracing off.
type recorder struct {
	epoch time.Time
	spans []span
	open  []int // stack of open span ids
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func noop() {}

// span opens a span named name under the innermost open span and returns
// the function that closes it. The MemStats reads sit outside the span's
// own interval, so they count as tracing overhead, not as layer time.
func (r *recorder) span(name string) (end func()) {
	if r == nil {
		return noop
	}
	parent := -1
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	id := len(r.spans)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	r.spans = append(r.spans, span{id: id, parent: parent, name: name})
	r.open = append(r.open, id)
	r.spans[id].start = time.Since(r.epoch)
	return func() {
		r.spans[id].end = time.Since(r.epoch)
		runtime.ReadMemStats(&ms)
		r.spans[id].allocBytes = ms.TotalAlloc - before
		r.open = r.open[:len(r.open)-1]
	}
}

// find returns the first span with the given name.
func (r *recorder) find(name string) (span, bool) {
	if r != nil {
		for _, s := range r.spans {
			if s.name == name {
				return s, true
			}
		}
	}
	return span{}, false
}

// selfTime is the span's duration minus the part its direct children cover.
func (r *recorder) selfTime(s span) time.Duration {
	self := s.dur()
	for _, c := range r.spans {
		if c.parent == s.id {
			self -= c.dur()
		}
	}
	return self
}

// selfSeconds returns the self time of the named span, 0 when absent.
func (r *recorder) selfSeconds(name string) float64 {
	s, ok := r.find(name)
	if !ok {
		return 0
	}
	return r.selfTime(s).Seconds()
}

// traceEvent is one object of the Chrome trace-event JSON array, the format
// obs.TraceSink writes and obs.ValidateTrace checks; args must be numbers.
type traceEvent struct {
	Name string             `json:"name"`
	Cat  string             `json:"cat"`
	Ph   string             `json:"ph"`
	Pid  int                `json:"pid"`
	Tid  int                `json:"tid"`
	Ts   float64            `json:"ts"`
	Args map[string]float64 `json:"args,omitempty"`
}

// writeTrace writes the spans as balanced B/E pairs on one track. workload
// is the identifier every span of this repetition shares. All spans come
// from one goroutine and are stored in begin order, so a depth-first walk
// emits them nested and in timestamp order.
func (r *recorder) writeTrace(path string, workload int) error {
	children := make(map[int][]int, len(r.spans))
	for _, s := range r.spans {
		children[s.parent] = append(children[s.parent], s.id)
	}
	var events []traceEvent
	var walk func(id int)
	walk = func(id int) {
		s := r.spans[id]
		events = append(events, traceEvent{Name: s.name, Cat: "benchmark", Ph: "B", Pid: 1, Ts: micros(s.start),
			Args: map[string]float64{"id": float64(s.id), "parent": float64(s.parent), "workload": float64(workload)}})
		for _, c := range children[id] {
			walk(c)
		}
		events = append(events, traceEvent{Name: s.name, Cat: "benchmark", Ph: "E", Pid: 1, Ts: micros(s.end),
			Args: map[string]float64{"alloc_bytes": float64(s.allocBytes)}})
	}
	for _, root := range children[-1] {
		walk(root)
	}

	data, err := json.MarshalIndent(events, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func micros(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
