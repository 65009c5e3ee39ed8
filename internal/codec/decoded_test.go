package codec

import (
	"bytes"
	"math"
	"testing"

	"snnmap/internal/curve"
	"snnmap/internal/hw"
	"snnmap/internal/mapping"
	"snnmap/internal/metrics"
	"snnmap/internal/pcn"
	"snnmap/internal/snn"
)

// sharedOutRows reports, per cluster c > 0, whether the view's out-row of c
// is the very slice of c−1's: one OutEdges slice per stretch of repeated
// rows.
func sharedOutRows(p *pcn.PCN) []bool {
	s := p.Symmetric()
	shared := make([]bool, p.NumClusters)
	for c := 1; c < p.NumClusters; c++ {
		a, _ := s.OutEdges(c - 1)
		b, _ := s.OutEdges(c)
		shared[c] = len(a) > 0 && len(a) == len(b) && &a[0] == &b[0]
	}
	return shared
}

// TestDecodedPCNMatchesExpanded: a PCN read back by ReadPCN, and the one a
// snapshot embeds, carry none of what Expand records about its rows, so
// their transpose scans for the repeated out-rows. It must find the ones
// Expand recorded — one OutEdges slice per stretch — and Evaluate must give
// the expanded PCN's bits in every Summary field.
func TestDecodedPCNMatchesExpanded(t *testing.T) {
	for _, n := range []*snn.Net{snn.DNN16M(), snn.ResNet(), snn.MobileNet()} {
		t.Run(n.Name, func(t *testing.T) {
			p, err := pcn.Expand(n, pcn.DefaultPartition())
			if err != nil {
				t.Fatal(err)
			}
			pl, err := mapping.InitialPlacement(p, hw.MeshFor(p.NumClusters), curve.Hilbert{})
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := WritePCN(&buf, p); err != nil {
				t.Fatal(err)
			}
			decoded, err := ReadPCN(&buf)
			if err != nil {
				t.Fatal(err)
			}
			var snap *mapping.Snapshot
			_, err = mapping.Finetune(p, pl.Clone(), mapping.FDConfig{MaxIterations: 2,
				Checkpoint: &mapping.CheckpointConfig{Interval: 1, Fn: func(s *mapping.Snapshot) error {
					if snap == nil {
						snap = s
					}
					return nil
				}}})
			if err != nil {
				t.Fatal(err)
			}
			if snap == nil {
				t.Fatal("fine-tuning converged before the first checkpoint")
			}
			buf.Reset()
			if err := WriteSnapshot(&buf, snap); err != nil {
				t.Fatal(err)
			}
			back, err := ReadSnapshot(&buf)
			if err != nil {
				t.Fatal(err)
			}

			want, wantShared := metrics.Evaluate(p, pl, hw.DefaultCostModel(), metrics.Options{}), sharedOutRows(p)
			stretches := 0
			for _, s := range wantShared {
				if s {
					stretches++
				}
			}
			if stretches == 0 {
				t.Fatal("the expanded PCN shares no out-row: the case tests nothing")
			}
			for name, q := range map[string]*pcn.PCN{"ReadPCN": decoded, "snapshot": back.PCN} {
				for c, s := range sharedOutRows(q) {
					if s != wantShared[c] {
						t.Fatalf("%s: cluster %d shares its predecessor's out-row: %v, expanded %v", name, c, s, wantShared[c])
					}
				}
				got := metrics.Evaluate(q, pl, hw.DefaultCostModel(), metrics.Options{})
				for _, f := range []struct {
					name      string
					got, want float64
				}{
					{"Energy", got.Energy, want.Energy},
					{"AvgLatency", got.AvgLatency, want.AvgLatency},
					{"MaxLatency", got.MaxLatency, want.MaxLatency},
					{"AvgCongestion", got.AvgCongestion, want.AvgCongestion},
					{"MaxCongestion", got.MaxCongestion, want.MaxCongestion},
				} {
					if math.Float64bits(f.got) != math.Float64bits(f.want) {
						t.Errorf("%s: %s = %#x, expanded %#x", name, f.name, math.Float64bits(f.got), math.Float64bits(f.want))
					}
				}
			}
		})
	}
}
