package pcn

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"snnmap/internal/hw"
	"snnmap/internal/snn"
)

// oracleExpand is the target-major expansion as it stood before dense Conns
// were written source-major, kept verbatim: one traversal per pass, every
// edge through the emit closure, the Dense share divided per edge. It shares
// planLayers, proportional and finalizeCSR with the code under test.
func oracleExpand(n *snn.Net, cfg PartitionConfig) (*PCN, error) {
	if err := n.Validate(); err != nil {
		return nil, fmt.Errorf("pcn: invalid net: %w", err)
	}
	plan, err := planLayers(n, cfg)
	if err != nil {
		return nil, err
	}

	p := &PCN{Name: n.Name, NumClusters: plan.total}
	p.Neurons = make([]int32, 0, plan.total)
	p.Synapses = make([]int64, 0, plan.total)
	p.Layer = make([]int32, 0, plan.total)
	for li, l := range n.Layers {
		per, count := plan.per[li], plan.count[li]
		for ci := 0; ci < count; ci++ {
			neurons := per
			if ci == count-1 {
				neurons = l.Neurons - per*int64(count-1)
			}
			p.Neurons = append(p.Neurons, int32(neurons))
			p.Synapses = append(p.Synapses, neurons*plan.fanIn[li])
			p.Layer = append(p.Layer, int32(li))
		}
	}

	counts := make([]int64, plan.total+1)
	if err := oracleTraverseConns(n, p, plan, func(f, t int, _ float64) {
		if f != t {
			counts[f+1]++
		}
	}); err != nil {
		return nil, err
	}
	for i := 0; i < plan.total; i++ {
		counts[i+1] += counts[i]
	}
	outTo := make([]int32, counts[plan.total])
	outW := make([]float64, counts[plan.total])
	next := make([]int64, plan.total)
	copy(next, counts[:plan.total])
	_ = oracleTraverseConns(n, p, plan, func(f, t int, weight float64) {
		if f == t {
			p.InternalTraffic += weight
			return
		}
		pos := next[f]
		next[f]++
		outTo[pos] = int32(t)
		outW[pos] = weight
	})
	p.OutOff, p.OutTo, p.OutW = finalizeCSR(counts, outTo, outW, cfg.Workers, nil)
	return p, nil
}

func oracleTraverseConns(n *snn.Net, p *PCN, plan layerPlan, emit func(f, t int, weight float64)) error {
	for _, c := range n.Conns {
		fc, tc := plan.count[c.From], plan.count[c.To]
		f0, t0 := plan.first[c.From], plan.first[c.To]
		rate := n.RateOf(c.From)
		for tj := 0; tj < tc; tj++ {
			targetTraffic := float64(p.Neurons[t0+tj]) * float64(c.FanIn) * rate
			switch c.Pattern {
			case snn.Dense:
				// Source clusters contribute in proportion to their size.
				srcNeurons := float64(n.Layers[c.From].Neurons)
				for fi := 0; fi < fc; fi++ {
					share := float64(p.Neurons[f0+fi]) / srcNeurons
					emit(f0+fi, t0+tj, targetTraffic*share)
				}
			case snn.Local:
				window := c.Window
				if window < 1 {
					window = 1
				}
				if window > fc {
					window = fc
				}
				center := proportional(tj, tc, fc)
				start := center - (window-1)/2
				if start < 0 {
					start = 0
				}
				if start+window > fc {
					start = fc - window
				}
				share := targetTraffic / float64(window)
				for fi := start; fi < start+window; fi++ {
					emit(f0+fi, t0+tj, share)
				}
			case snn.OneToOne:
				emit(f0+proportional(tj, tc, fc), t0+tj, targetTraffic)
			default:
				return fmt.Errorf("pcn: unknown pattern %v in net %q", c.Pattern, n.Name)
			}
		}
	}
	return nil
}

// requireSamePCN fails unless got and want agree in every array, weights and
// InternalTraffic compared bit for bit.
func requireSamePCN(t testing.TB, name string, got, want *PCN) {
	t.Helper()
	switch {
	case got.Name != want.Name || got.NumClusters != want.NumClusters:
		t.Fatalf("%s: %q with %d clusters, oracle %q with %d", name, got.Name, got.NumClusters, want.Name, want.NumClusters)
	case !slices.Equal(got.Neurons, want.Neurons) || !slices.Equal(got.Synapses, want.Synapses) || !slices.Equal(got.Layer, want.Layer):
		t.Fatalf("%s: per-cluster arrays differ from the oracle's", name)
	case !slices.Equal(got.OutOff, want.OutOff) || !slices.Equal(got.OutTo, want.OutTo):
		t.Fatalf("%s: CSR structure differs from the oracle's (%d vs %d edges)", name, got.NumEdges(), want.NumEdges())
	case !slices.EqualFunc(got.OutW, want.OutW, sameBits):
		t.Fatalf("%s: edge weights differ from the oracle's in their bits", name)
	case !sameBits(got.InternalTraffic, want.InternalTraffic):
		t.Fatalf("%s: InternalTraffic %v, oracle %v", name, got.InternalTraffic, want.InternalTraffic)
	}
}

// requireRecordMatchesScan fails unless what expand recorded about p's rows
// is what the scans would find: the leaders equal outLeads(), every stored
// row is what mergeRow makes of it (so no row that skipped the merge needed
// it), and a recorded forward answer agrees with Monotone's scan.
func requireRecordMatchesScan(t testing.TB, name string, p *PCN) {
	t.Helper()
	if p.plan == nil {
		t.Fatalf("%s: Expand recorded nothing", name)
	}
	if scan := p.outLeads(); (p.plan.leads == nil) != (scan == nil) || !slices.Equal(p.plan.leads, scan) {
		t.Fatalf("%s: recorded leaders differ from outLeads()", name)
	}
	m := rowMerger{n: p.NumClusters}
	for i := range p.NumClusters {
		tos, ws := p.OutEdges(i)
		to, w := slices.Clone(tos), slices.Clone(ws)
		if d := m.mergeRow(to, w); d != len(tos) || !slices.Equal(to[:d], tos) || !slices.EqualFunc(w[:d], ws, sameBits) {
			t.Fatalf("%s: out-row %d changes under mergeRow", name, i)
		}
	}
	unrecorded := *p
	unrecorded.plan = nil
	if p.plan.forward && !unrecorded.Monotone() {
		t.Fatalf("%s: recorded forward, but an edge points backward", name)
	}
}

// TestExpandRecordMatchesScan holds what Expand records about its rows to
// the scans it replaces (requireRecordMatchesScan) on the model zoo, a
// reservoir with back-edges, ragged dense layers, CNN windows, and dense
// layers whose Conns revisit a target layer or reach it out of order (rows
// that must be merged), and pins the work the record saves on DNN_16M: no
// row through mergeRow and one sameOutRow per layer boundary and per pair of
// the last layer's empty rows, where the scans took 4 096 and 4 095.
func TestExpandRecordMatchesScan(t *testing.T) {
	lsm, err := snn.Reservoir("lsm", snn.ReservoirConfig{Inputs: 2048, ReservoirNeurons: 40960, Readouts: 1024})
	if err != nil {
		t.Fatal(err)
	}
	ragged := snn.SynthDNN("ragged", 5, 3*4096+904)
	for i := range ragged.Layers {
		ragged.Layers[i].Rate = 0.1 * float64(i+1)
	}
	revisit := snn.SynthDNN("revisit", 4, 5*4096)
	revisit.Connect(0, 1, 7, snn.Dense, 0) // layer 0 reaches layer 1 twice
	unordered := snn.SynthDNN("unordered", 4, 5*4096)
	unordered.Connect(1, 0, 3, snn.Dense, 0) // layer 1 reaches 2, then 0
	unordered.Connect(3, 1, 3, snn.Dense, 0)
	for _, n := range []*snn.Net{snn.DNN16M(), snn.CNN16M(), snn.ResNet(), snn.MobileNet(), snn.InceptionV3(),
		lsm, ragged, revisit, unordered} {
		for _, workers := range []int{1, 4} {
			cfg := DefaultPartition()
			cfg.Workers = workers
			name := fmt.Sprintf("%s/workers=%d", n.Name, workers)
			want, err := oracleExpand(n, cfg)
			if err != nil {
				t.Fatalf("%s: oracle: %v", name, err)
			}
			got, work, err := expand(n, cfg)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			requireSamePCN(t, name, got, want)
			requireRecordMatchesScan(t, name, got)
			if n.Name == "DNN_16M" && (work != expandWork{mergedRows: 0, rowCompares: 126}) {
				t.Errorf("%s: %+v, want 0 merged rows and 126 row compares", name, work)
			}
		}
	}
}

// TestExpandMatchesOracle holds Expand to the target-major oracle bit for bit
// on the model zoo, the synthetic families up to 268M neurons, a reservoir
// with back-edges, dense layers ending in a ragged cluster (whose share
// differs from its siblings'), and a synapse-limited sizing, at workers 1 and
// 4.
func TestExpandMatchesOracle(t *testing.T) {
	lsm, err := snn.Reservoir("lsm", snn.ReservoirConfig{Inputs: 2048, ReservoirNeurons: 40960, Readouts: 1024})
	if err != nil {
		t.Fatal(err)
	}
	rated := snn.SynthDNN("rated", 5, 3*4096+904)
	for i := range rated.Layers {
		rated.Layers[i].Rate = 0.1 * float64(i+1)
	}
	synLimited := DefaultPartition()
	synLimited.EnforceSynapses = true
	synLimited.Constraints.SynapsesPerCore = 1 << 20
	cases := []struct {
		nets []*snn.Net
		cfgs []PartitionConfig
	}{
		{[]*snn.Net{snn.MobileNet(), snn.InceptionV3(), snn.DNN16M(), snn.DNN268M(), snn.CNN16M(), snn.CNN268M(), lsm},
			[]PartitionConfig{DefaultPartition()}},
		// Synapse-limited sizing shrinks clusters; kept to nets it leaves small.
		{[]*snn.Net{snn.LeNetMNIST(), snn.LeNetImageNet(), snn.AlexNet(), snn.ResNet(), snn.DNN65K(), snn.CNN65K(), rated},
			[]PartitionConfig{DefaultPartition(), synLimited}},
	}
	for _, c := range cases {
		for _, n := range c.nets {
			for _, cfg := range c.cfgs {
				for _, workers := range []int{1, 4} {
					cfg.Workers = workers
					name := fmt.Sprintf("%s/enforce=%v/workers=%d", n.Name, cfg.EnforceSynapses, workers)
					want, err := oracleExpand(n, cfg)
					if err != nil {
						t.Fatalf("%s: oracle: %v", name, err)
					}
					got, err := Expand(n, cfg)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					requireSamePCN(t, name, got, want)
				}
			}
		}
	}
}

// FuzzExpand decodes a small layer-spec net — up to six layers of up to 200
// neurons, so the last cluster of a layer is usually ragged; dense, local and
// one-to-one Conns between any two distinct layers, forward or back, with
// fractional rates and windows wider than the source layer; a random CON_npc
// and optionally an enforced CON_spc — and holds Expand to the oracle bit for
// bit, errors included, and its record of the rows to the scans.
func FuzzExpand(f *testing.F) {
	f.Add([]byte{3, 40, 0, 64, 1, 33, 2, 5, 2, 0, 1, 9, 0, 0, 1, 2, 7, 1, 3, 2, 0, 4, 2, 2, 6, 0})
	f.Add([]byte{5, 17, 0, 200, 3, 5, 1, 90, 4, 1, 5, 0, 1, 9, 3, 2, 4, 1, 1, 0, 3, 4, 1, 2, 2, 1, 3, 0, 5, 8, 1, 255})
	f.Add([]byte{1, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		rng := rand.New(rand.NewSource(int64(len(data))))
		next := func() int {
			if len(data) == 0 {
				return rng.Intn(256)
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		rates := [...]float64{0, 1, 0.3, 2.5, 1e-3, 7}
		n := &snn.Net{Name: "fuzz"}
		for i, layers := 0, 2+next()%5; i < layers; i++ {
			n.Layers = append(n.Layers, snn.Layer{Name: fmt.Sprint("l", i), Neurons: int64(1 + next()%200), Rate: rates[next()%len(rates)]})
		}
		for i, conns := 0, next()%7; i < conns; i++ {
			from, to := next()%len(n.Layers), next()%len(n.Layers)
			if from == to {
				to = (to + 1) % len(n.Layers)
			}
			n.Connect(from, to, int64(1+next()*next()), snn.Pattern(next()%3), next()%7)
		}
		cfg := PartitionConfig{Constraints: hw.Constraints{NeuronsPerCore: 1 + next()%16}, Workers: 1 + next()%3}
		if next()%2 == 1 {
			cfg.EnforceSynapses, cfg.Constraints.SynapsesPerCore = true, 1+next()*37
		}
		want, wantErr := oracleExpand(n, cfg)
		got, err := Expand(n, cfg)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("Expand error %v, oracle error %v", err, wantErr)
		}
		if err != nil {
			return
		}
		requireSamePCN(t, "fuzz", got, want)
		requireRecordMatchesScan(t, "fuzz", got)
		if err := got.Validate(); err != nil {
			t.Fatal(err)
		}
		if got.InternalTraffic != 0 || math.IsNaN(got.TotalWeight()) {
			t.Fatalf("InternalTraffic %v, total weight %v", got.InternalTraffic, got.TotalWeight())
		}
	})
}
