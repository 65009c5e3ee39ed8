package codec

import (
	"bytes"
	"errors"
	"testing"

	"snnmap/internal/hw"
	"snnmap/internal/pcn"
	"snnmap/internal/place"
	"snnmap/internal/snn"
)

// Native fuzz targets: the decoders must never panic and must reject
// corrupt input with an error (or round-trip valid input faithfully). `go
// test` exercises the seed corpus; `go test -fuzz=FuzzReadPCN` explores.

func FuzzReadPCN(f *testing.F) {
	// Seeds: a valid file, its truncations, and noise.
	p := samplePCNForFuzz(f)
	var buf bytes.Buffer
	if err := WritePCN(&buf, p); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte("SNNPCN01garbage"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		q, err := ReadPCN(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Anything accepted must be internally valid.
		if vErr := q.Validate(); vErr != nil {
			t.Fatalf("decoder accepted an invalid PCN: %v", vErr)
		}
	})
}

func FuzzReadPlacement(f *testing.F) {
	pl, err := place.Sequential(4, hw.MustMesh(2, 3))
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WritePlacement(&buf, pl); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:8])
	f.Add([]byte("SNNPLC01xx"))
	f.Fuzz(func(t *testing.T, data []byte) {
		q, err := ReadPlacement(bytes.NewReader(data))
		if err != nil {
			return
		}
		if vErr := q.Validate(); vErr != nil {
			t.Fatalf("decoder accepted an invalid placement: %v", vErr)
		}
	})
}

func FuzzReadNetJSON(f *testing.F) {
	var buf bytes.Buffer
	if err := WriteNetJSON(&buf, snn.LeNetMNIST()); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte(`{"name":"x","layers":[{"name":"a","neurons":1}]}`))
	f.Add([]byte(`{`))
	f.Add([]byte(`[]`))
	f.Add([]byte(`{"name":"inf","layers":[{"name":"a","neurons":8192,"rate":1e300},{"name":"b","neurons":8192}],` +
		`"connections":[{"from":0,"to":1,"fanIn":10000000000,"pattern":"dense"}]}`))
	f.Add([]byte(`{"name":"wide","layers":[{"name":"a","neurons":4096},{"name":"b","neurons":4096}],` +
		`"connections":[{"from":0,"to":1,"fanIn":9000000000000000000,"pattern":"local","window":3}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		n, err := ReadNetJSON(bytes.NewReader(data))
		if err != nil {
			return
		}
		if vErr := n.Validate(); vErr != nil {
			t.Fatalf("decoder accepted an invalid net: %v", vErr)
		}
		// An accepted net expands to a valid PCN or is refused as a bad
		// configuration. Layers are capped so the expansion stays small.
		for _, l := range n.Layers {
			if l.Neurons > 1<<20 {
				return
			}
		}
		p, err := pcn.Expand(n, pcn.DefaultPartition())
		if err != nil {
			if !errors.Is(err, place.ErrBadConfig) {
				t.Fatalf("Expand of an accepted net: %v, want an ErrBadConfig", err)
			}
			return
		}
		if vErr := p.Validate(); vErr != nil {
			t.Fatalf("an accepted net expanded to an invalid PCN: %v", vErr)
		}
	})
}

func FuzzReadSnapshot(f *testing.F) {
	snap := sampleSnapshot(f, 1)
	bare := *snap
	bare.PCN = nil
	var withPCN, noPCN bytes.Buffer
	if err := WriteSnapshot(&withPCN, snap); err != nil {
		f.Fatal(err)
	}
	if err := WriteSnapshot(&noPCN, &bare); err != nil {
		f.Fatal(err)
	}
	f.Add(withPCN.Bytes())
	f.Add(noPCN.Bytes())
	f.Add(withPCN.Bytes()[:len(withPCN.Bytes())/2])
	f.Add(noPCN.Bytes()[:20])
	f.Add([]byte("SNNCKP99version-skew"))
	f.Add([]byte("SNNCKP01"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		q, err := ReadSnapshot(bytes.NewReader(data))
		if err != nil {
			return
		}
		if vErr := q.Validate(); vErr != nil {
			t.Fatalf("decoder accepted an invalid snapshot: %v", vErr)
		}
	})
}

// samplePCNForFuzz builds a small deterministic PCN without *testing.T.
func samplePCNForFuzz(f *testing.F) *pcn.PCN {
	f.Helper()
	var b snn.GraphBuilder
	b.AddNeurons(6, -1)
	b.AddSynapse(0, 1, 1.5)
	b.AddSynapse(1, 2, 2)
	b.AddSynapse(3, 4, 1)
	b.AddSynapse(4, 5, 3)
	b.AddSynapse(0, 5, 0.5)
	g := b.Build()
	res, err := pcn.Partition(g, pcn.PartitionConfig{Constraints: hw.Constraints{NeuronsPerCore: 2}})
	if err != nil {
		f.Fatal(err)
	}
	return res.PCN
}
