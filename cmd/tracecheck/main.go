// Command tracecheck validates Chrome trace-event JSON files written by
// the -trace-out flag (internal/obs): the file must be a well-formed JSON
// array of known event phases with non-decreasing per-track timestamps and
// a balanced, name-matched B/E span stack. CI runs it on the trace
// artifact of a small mapping run.
//
// Usage:
//
//	tracecheck trace.json [more.json ...]
//	snnmap -workload LeNet-MNIST -trace-out /dev/stdout | tracecheck -
//
// Exit status is 0 when every input validates, 1 otherwise, and 2 on a
// usage error.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"snnmap/internal/obs"
)

func main() { os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr)) }

// run is the command: trace paths in args ("-" reads stdin), one ok line per
// valid trace to stdout, one error line per invalid one to stderr. It
// returns the exit code.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tracecheck", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: tracecheck <trace.json>... (- for stdin)")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() == 0 {
		fs.Usage()
		return 2
	}
	code := 0
	for _, path := range fs.Args() {
		st, err := check(path, stdin)
		if err != nil {
			fmt.Fprintf(stderr, "tracecheck: %s: %v\n", path, err)
			code = 1
			continue
		}
		fmt.Fprintf(stdout, "%s: ok — %d events (%d spans, %d counter samples, %d instants, max depth %d)\n",
			path, st.Events, st.Spans, st.Counters, st.Instants, st.MaxDepth)
	}
	return code
}

func check(path string, stdin io.Reader) (obs.TraceStats, error) {
	if path == "-" {
		return obs.ValidateTrace(stdin)
	}
	f, err := os.Open(path)
	if err != nil {
		return obs.TraceStats{}, err
	}
	defer f.Close()
	return obs.ValidateTrace(f)
}
