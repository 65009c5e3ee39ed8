package obs_test

// The telemetry determinism contract (DESIGN.md §8): an observer is
// observe-only, so every pipeline stage produces bit-identical results with
// telemetry enabled or disabled, at every worker/shard count. These tests
// run the real stages — FD fine-tuning, the NoC simulator, parallel
// metrics evaluation, and the multilevel partitioner — against a fully
// wired observer (trace sink + progress callback) and require exact
// equality with the nil-observer run. Under -race they double as the
// data-race check for counter aggregation in parallel stages.

import (
	"io"
	"math/rand"
	"reflect"
	"testing"

	"snnmap/internal/hw"
	"snnmap/internal/mapping"
	"snnmap/internal/metrics"
	"snnmap/internal/noc"
	"snnmap/internal/obs"
	"snnmap/internal/pcn"
	"snnmap/internal/place"
	"snnmap/internal/snn"
)

var parallelCounts = []int{1, 2, 4, 7}

// fullObserver returns an observer with every output wired: a trace sink
// discarding into io.Discard and an unthrottled progress callback, so the
// instrumented paths all execute (not just the Enabled() guards).
func fullObserver() *obs.Observer {
	return obs.New(obs.Config{
		Sink:          obs.NewTraceSink(io.Discard),
		OnProgress:    func(obs.Progress) {},
		ProgressEvery: 1, // 1ns: effectively unthrottled
	})
}

// randomGraph builds a random synapse graph with n neurons and ~e synapses.
func randomGraph(seed int64, n, e int) *snn.Graph {
	rng := rand.New(rand.NewSource(seed))
	var b snn.GraphBuilder
	b.AddNeurons(n, -1)
	for i := 0; i < e; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			b.AddSynapse(u, v, float64(rng.Intn(9)+1))
		}
	}
	return b.Build()
}

// randomPCN partitions a random graph at one neuron per core, so clusters
// map 1:1 to neurons and the cluster graph has ~e edges.
func randomPCN(t testing.TB, seed int64, n, e int) *pcn.PCN {
	t.Helper()
	res, err := pcn.Partition(randomGraph(seed, n, e), pcn.PartitionConfig{Constraints: hw.Constraints{NeuronsPerCore: 1}})
	if err != nil {
		t.Fatal(err)
	}
	return res.PCN
}

func randomPlacement(t testing.TB, p *pcn.PCN, mesh hw.Mesh, seed int64) *place.Placement {
	t.Helper()
	pl, err := place.Random(p.NumClusters, mesh, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return pl
}

// TestFinetuneTelemetryEquivalence: FD fine-tuning with a live observer
// reproduces the nil-observer placement and FDStats exactly, for workers ∈
// {1, 2, 4, 7}: per-sweep counters are published between the sequential
// sweeps while the build phases around them fan out.
func TestFinetuneTelemetryEquivalence(t *testing.T) {
	mesh := hw.MustMesh(52, 52)
	p := randomPCN(t, 41, 2600, 13000)

	run := func(workers int, o *obs.Observer) ([]int32, mapping.FDStats) {
		pl := randomPlacement(t, p, mesh, 17)
		stats, err := mapping.Finetune(p, pl, mapping.FDConfig{
			Potential: mapping.L2Sq{}, Workers: workers, MaxIterations: 30, Obs: o,
		})
		if err != nil {
			t.Fatal(err)
		}
		stats.Elapsed = 0 // wall-clock legitimately differs
		return pl.PosOf, stats
	}

	wantPos, wantStats := run(1, nil)
	for _, w := range parallelCounts {
		for _, withObs := range []bool{false, true} {
			var o *obs.Observer
			if withObs {
				o = fullObserver()
			}
			pos, stats := run(w, o)
			if !reflect.DeepEqual(pos, wantPos) {
				t.Errorf("workers=%d obs=%v: placement diverged", w, withObs)
			}
			if stats != wantStats {
				t.Errorf("workers=%d obs=%v: FDStats = %+v, want %+v", w, withObs, stats, wantStats)
			}
		}
	}
}

// TestSimulateTelemetryEquivalence: the NoC simulator's full Result —
// metrics, transport Stats, everything — is identical with and without an
// observer, for shards ∈ {1, 2, 4, 7} (accepted and ignored).
func TestSimulateTelemetryEquivalence(t *testing.T) {
	mesh := hw.MustMesh(8, 8)
	p := randomPCN(t, 7, 60, 420)
	pl := randomPlacement(t, p, mesh, 5)

	run := func(shards int, o *obs.Observer) noc.Result {
		res, err := noc.Simulate(p, pl, noc.Config{Shards: shards, Obs: o})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	want := run(1, nil)
	for _, s := range parallelCounts {
		for _, withObs := range []bool{false, true} {
			var o *obs.Observer
			if withObs {
				o = fullObserver()
			}
			if got := run(s, o); !reflect.DeepEqual(got, want) {
				t.Errorf("shards=%d obs=%v: Result = %+v, want %+v", s, withObs, got, want)
			}
		}
	}
}

// TestEvaluateTelemetryEquivalence: parallel metrics evaluation returns the
// identical Summary with and without an observer, for workers ∈ {1, 2, 4, 7}.
func TestEvaluateTelemetryEquivalence(t *testing.T) {
	mesh := hw.MustMesh(16, 16)
	p := randomPCN(t, 11, 250, 4000)
	pl := randomPlacement(t, p, mesh, 9)
	cost := hw.DefaultCostModel()

	want := metrics.Evaluate(p, pl, cost, metrics.Options{Workers: 1})
	for _, w := range parallelCounts {
		for _, withObs := range []bool{false, true} {
			var o *obs.Observer
			if withObs {
				o = fullObserver()
			}
			got := metrics.Evaluate(p, pl, cost, metrics.Options{Workers: w, Obs: o})
			if got != want {
				t.Errorf("workers=%d obs=%v: Summary = %v, want %v", w, withObs, got, want)
			}
		}
	}
}

// TestMultilevelTelemetryEquivalence: the multilevel partitioner's cluster
// assignment and cluster graph are identical with and without an observer,
// for matching workers ∈ {1, 2, 4, 7}.
func TestMultilevelTelemetryEquivalence(t *testing.T) {
	g := randomGraph(13, 4000, 16000)

	run := func(workers int, o *obs.Observer) *pcn.Result {
		res, err := pcn.Partition(g, pcn.PartitionConfig{
			Constraints: hw.Constraints{NeuronsPerCore: 32},
			Multilevel:  &pcn.MultilevelOptions{Workers: workers},
			Obs:         o,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	want := run(1, nil)
	for _, w := range parallelCounts {
		for _, withObs := range []bool{false, true} {
			var o *obs.Observer
			if withObs {
				o = fullObserver()
			}
			got := run(w, o)
			if !reflect.DeepEqual(got.ClusterOf, want.ClusterOf) {
				t.Errorf("workers=%d obs=%v: cluster assignment diverged", w, withObs)
			}
			if !reflect.DeepEqual(got.PCN, want.PCN) {
				t.Errorf("workers=%d obs=%v: cluster graph diverged", w, withObs)
			}
		}
	}
}
