package obs_test

// Overhead guard for the no-op path. Disabled telemetry is a nil
// *Observer: every call must cost a nil check and nothing else, so
// instrumented hot loops stay as fast as uninstrumented ones. The
// micro-benchmarks pin the per-call cost; the Finetune pair measures the
// end-to-end cost of an enabled trace sink on FD fine-tuning (the
// fd-finetune/obs=trace case of internal/expt's BenchmarkCases times the
// same pair on a larger mesh).
//
//	go test ./internal/obs -bench . -benchtime 100x

import (
	"io"
	"testing"

	"snnmap/internal/hw"
	"snnmap/internal/mapping"
	"snnmap/internal/obs"
)

func BenchmarkNilObserverSpan(b *testing.B) {
	var o *obs.Observer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := o.Span("x")
		sp.End()
	}
}

func BenchmarkNilObserverCounter(b *testing.B) {
	var o *obs.Observer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		o.Counter("x", obs.KV{K: "v", V: 1})
	}
}

func BenchmarkNilObserverProgress(b *testing.B) {
	var o *obs.Observer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		o.Progress("x", int64(i), int64(b.N))
	}
}

// BenchmarkNilObserverEnabled is the guard hot loops use to skip argument
// construction; it must be free enough to sit inside per-flit code.
func BenchmarkNilObserverEnabled(b *testing.B) {
	var o *obs.Observer
	sink := 0
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if o.Enabled() {
			sink++
		}
	}
	_ = sink
}

// BenchmarkFinetune pairs the fd-finetune tier with telemetry off (nil
// observer — the production default) and on (trace sink into io.Discard).
// Compare the two to read the enabled-telemetry overhead; the contract is
// that the off case is indistinguishable from uninstrumented code and the
// on case stays within a few percent (spans and counters are published at
// sweep boundaries, never per-swap).
func BenchmarkFinetune(b *testing.B) {
	mesh := hw.MustMesh(22, 22)
	p := randomPCN(b, 41, 440, 3200)

	for _, bc := range []struct {
		name string
		obs  func() *obs.Observer
	}{
		{"obs=off", func() *obs.Observer { return nil }},
		{"obs=trace", func() *obs.Observer {
			return obs.New(obs.Config{Sink: obs.NewTraceSink(io.Discard)})
		}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				pl := randomPlacement(b, p, mesh, 17)
				if _, err := mapping.Finetune(p, pl, mapping.FDConfig{
					Potential: mapping.L2Sq{}, Workers: 1, Obs: bc.obs(),
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
