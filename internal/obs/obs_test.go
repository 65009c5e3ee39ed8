package obs

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// TestNilObserverIsSafe exercises every exported method on the disabled
// (nil) observer: all must be no-ops.
func TestNilObserverIsSafe(t *testing.T) {
	var o *Observer
	if o.Enabled() {
		t.Fatal("nil observer reports Enabled")
	}
	sp := o.Span("phase", KV{K: "a", V: 1})
	sp.End(KV{K: "b", V: 2})
	o.Counter("c", KV{K: "x", V: 3})
	o.Progress("p", 1, 10)
	Span{}.End()
}

func TestNewDisabledWhenEmpty(t *testing.T) {
	if o := New(Config{}); o != nil {
		t.Fatalf("New with empty config = %v, want nil", o)
	}
	if o := New(Config{OnProgress: func(Progress) {}}); o == nil {
		t.Fatal("New with progress callback = nil")
	}
}

// TestTraceRoundTrip emits a nested span tree with counters and progress
// through a TraceSink and validates the resulting Chrome trace JSON.
func TestTraceRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	sink := NewTraceSink(&buf)
	o := New(Config{Sink: sink, ProgressEvery: time.Nanosecond})
	outer := o.Span("partition")
	inner := o.Span("expand", KV{K: "layer", V: 0})
	o.Counter("expand.layer", KV{K: "clusters", V: 128}, KV{K: "edges", V: 512})
	inner.End(KV{K: "cut", V: 3.5})
	o.Progress("partition", 1, 2)
	o.Progress("partition", 2, 2)
	outer.End()
	if err := sink.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	stats, err := ValidateTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ValidateTrace: %v\ntrace:\n%s", err, buf.String())
	}
	if stats.Spans != 2 {
		t.Errorf("Spans = %d, want 2", stats.Spans)
	}
	if stats.Counters != 1 {
		t.Errorf("Counters = %d, want 1", stats.Counters)
	}
	if stats.Instants == 0 {
		t.Error("no progress instants recorded")
	}
	if stats.MaxDepth != 2 {
		t.Errorf("MaxDepth = %d, want 2", stats.MaxDepth)
	}
}

func TestTraceEmptyIsValid(t *testing.T) {
	var buf bytes.Buffer
	sink := NewTraceSink(&buf)
	if err := sink.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := ValidateTrace(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("empty trace invalid: %v\n%s", err, buf.String())
	}
}

// TestProgressThrottle checks that reports inside one throttle window are
// suppressed while the final report always passes.
func TestProgressThrottle(t *testing.T) {
	var got []Progress
	o := New(Config{OnProgress: func(p Progress) { got = append(got, p) }, ProgressEvery: time.Hour})
	for i := int64(1); i <= 99; i++ {
		o.Progress("fd", i, 100)
	}
	o.Progress("fd", 100, 100)
	if len(got) != 2 {
		t.Fatalf("got %d reports, want 2 (first + final)", len(got))
	}
	if got[0].Done != 1 || got[1].Done != 100 {
		t.Fatalf("reports = %+v, want first and final", got)
	}
	if got[1].Fraction != 1 {
		t.Errorf("final fraction = %v, want 1", got[1].Fraction)
	}
}

func TestProgressUnknownTotal(t *testing.T) {
	var got []Progress
	o := New(Config{OnProgress: func(p Progress) { got = append(got, p) }, ProgressEvery: time.Nanosecond})
	o.Progress("sim", 42, 0)
	if len(got) != 1 {
		t.Fatalf("got %d reports, want 1", len(got))
	}
	if got[0].Fraction != -1 || got[0].ETA != -1 {
		t.Errorf("unknown-total report = %+v, want Fraction=-1 ETA=-1", got[0])
	}
}

func TestValidateTraceRejects(t *testing.T) {
	cases := []struct {
		name  string
		trace string
	}{
		{"garbage", `{"not":"an array"`},
		{"unknown phase", `[{"name":"x","ph":"Z","pid":1,"tid":0,"ts":1}]`},
		{"unbalanced begin", `[{"name":"x","ph":"B","pid":1,"tid":0,"ts":1}]`},
		{"end without begin", `[{"name":"x","ph":"E","pid":1,"tid":0,"ts":1}]`},
		{"mismatched end", `[{"name":"a","ph":"B","pid":1,"tid":0,"ts":1},{"name":"b","ph":"E","pid":1,"tid":0,"ts":2}]`},
		{"time travel", `[{"name":"a","ph":"B","pid":1,"tid":0,"ts":5},{"name":"a","ph":"E","pid":1,"tid":0,"ts":3}]`},
	}
	for _, tc := range cases {
		if _, err := ValidateTrace(strings.NewReader(tc.trace)); err == nil {
			t.Errorf("%s: ValidateTrace accepted invalid trace", tc.name)
		}
	}
}

func TestRendererCommitsPhases(t *testing.T) {
	var buf bytes.Buffer
	r := Renderer(&buf)
	r(Progress{Phase: "partition", Done: 1, Total: 2, Fraction: 0.5, ETA: -1})
	r(Progress{Phase: "partition", Done: 2, Total: 2, Fraction: 1})
	r(Progress{Phase: "fd", Done: 3, Total: 0, Fraction: -1, ETA: -1})
	out := buf.String()
	if !strings.Contains(out, "partition") || !strings.Contains(out, "fd") {
		t.Fatalf("renderer output missing phases:\n%q", out)
	}
	if !strings.Contains(out, "100.0%") {
		t.Errorf("completed phase not rendered at 100%%:\n%q", out)
	}
	if strings.Count(out, "\n") < 1 {
		t.Errorf("completed phase not committed with newline:\n%q", out)
	}
}
