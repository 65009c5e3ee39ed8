package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"snnmap/internal/obs"
)

// sinkTrace is what -trace-out writes: nested spans and a counter sample
// through obs.TraceSink.
func sinkTrace(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	sink := obs.NewTraceSink(&buf)
	o := obs.New(obs.Config{Sink: sink})
	outer := o.Span("map")
	o.Span("map.fd").End()
	o.Counter("fd.sweep", obs.KV{K: "swaps", V: 3})
	outer.End()
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestExitCodes runs the command in-process: a trace obs.TraceSink wrote, by
// path or on stdin, validates with exit 0; an unbalanced or name-mismatched
// span, or an unreadable file, exits 1 naming the file; no arguments or a bad
// flag exit 2 with the usage line.
func TestExitCodes(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, data []byte) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	good := sinkTrace(t)
	goodPath := write("good.json", good)
	unbalanced := write("unbalanced.json", []byte(`[{"name":"map","ph":"B","pid":1,"tid":0,"ts":1}]`))
	mismatched := write("mismatched.json", []byte(`[{"name":"map","ph":"B","pid":1,"tid":0,"ts":1},{"name":"fd","ph":"E","pid":1,"tid":0,"ts":2}]`))

	for _, tc := range []struct {
		name      string
		args      []string
		stdin     []byte
		code      int
		stdout    string // required stdout prefix; "" means stdout stays empty
		stderrHas string
	}{
		{name: "sink trace", args: []string{goodPath}, code: 0, stdout: goodPath + ": ok — 5 events (2 spans, 1 counter samples, 0 instants, max depth 2)"},
		{name: "stdin", args: []string{"-"}, stdin: good, code: 0, stdout: "-: ok — 5 events"},
		{name: "unbalanced span", args: []string{unbalanced}, code: 1, stderrHas: "tracecheck: " + unbalanced + ": obs: 1 unclosed span(s)"},
		{name: "name mismatch", args: []string{mismatched}, code: 1, stderrHas: "tracecheck: " + mismatched + `: obs: event 1: end "fd" does not match open span "map"`},
		{name: "one bad of two", args: []string{goodPath, mismatched}, code: 1, stdout: goodPath + ": ok", stderrHas: "tracecheck: " + mismatched},
		{name: "missing file", args: []string{filepath.Join(dir, "none.json")}, code: 1, stderrHas: "tracecheck: "},
		{name: "no arguments", code: 2, stderrHas: "usage: tracecheck"},
		{name: "unknown flag", args: []string{"-x"}, code: 2, stderrHas: "usage: tracecheck"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, bytes.NewReader(tc.stdin), &stdout, &stderr); code != tc.code {
				t.Fatalf("exit code %d, want %d (stderr %q)", code, tc.code, stderr.String())
			}
			if tc.stdout == "" && stdout.Len() != 0 {
				t.Errorf("stdout %q, want nothing", stdout.String())
			}
			if tc.stdout != "" && !strings.HasPrefix(stdout.String(), tc.stdout) {
				t.Errorf("stdout %q, want prefix %q", stdout.String(), tc.stdout)
			}
			if tc.stderrHas != "" && !strings.Contains(stderr.String(), tc.stderrHas) {
				t.Errorf("stderr %q, want it to contain %q", stderr.String(), tc.stderrHas)
			}
			if tc.code == 0 && stderr.Len() != 0 {
				t.Errorf("stderr %q on success", stderr.String())
			}
		})
	}
}
