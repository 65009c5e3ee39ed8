package codec

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"snnmap/internal/hw"
	"snnmap/internal/pcn"
	"snnmap/internal/place"
	"snnmap/internal/snn"
)

func samplePCN(t testing.TB, seed int64, n, e int) *pcn.PCN {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var b snn.GraphBuilder
	b.AddNeurons(n, -1)
	for i := 0; i < e; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			b.AddSynapse(u, v, float64(rng.Intn(9)+1)/2)
		}
	}
	res, err := pcn.Partition(b.Build(), pcn.PartitionConfig{Constraints: hw.Constraints{NeuronsPerCore: 2}})
	if err != nil {
		t.Fatal(err)
	}
	res.PCN.Name = "sample"
	return res.PCN
}

func pcnsEqual(a, b *pcn.PCN) bool {
	if a.Name != b.Name || a.NumClusters != b.NumClusters ||
		a.NumEdges() != b.NumEdges() || a.InternalTraffic != b.InternalTraffic {
		return false
	}
	for i := range a.Neurons {
		if a.Neurons[i] != b.Neurons[i] || a.Synapses[i] != b.Synapses[i] || a.Layer[i] != b.Layer[i] {
			return false
		}
	}
	for i := range a.OutTo {
		if a.OutTo[i] != b.OutTo[i] || a.OutW[i] != b.OutW[i] {
			return false
		}
	}
	return true
}

func TestPCNBinaryRoundTrip(t *testing.T) {
	p := samplePCN(t, 1, 30, 200)
	var buf bytes.Buffer
	if err := WritePCN(&buf, p); err != nil {
		t.Fatal(err)
	}
	q, err := ReadPCN(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !pcnsEqual(p, q) {
		t.Fatal("binary round trip changed the PCN")
	}
}

func TestPCNBinaryRoundTripQuick(t *testing.T) {
	f := func(seed int64, n, e uint8) bool {
		p := samplePCN(t, seed, int(n%30)+2, int(e))
		var buf bytes.Buffer
		if err := WritePCN(&buf, p); err != nil {
			return false
		}
		q, err := ReadPCN(&buf)
		if err != nil {
			return false
		}
		return pcnsEqual(p, q)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestReadPCNRejectsGarbage(t *testing.T) {
	if _, err := ReadPCN(strings.NewReader("not a pcn file at all......")); err == nil {
		t.Error("garbage accepted")
	}
	// Truncation after the magic.
	var buf bytes.Buffer
	buf.Write(pcnMagic[:])
	buf.WriteString("abc")
	if _, err := ReadPCN(&buf); err == nil {
		t.Error("truncated file accepted")
	}
	// Corrupt a valid file body.
	p := samplePCN(t, 2, 10, 40)
	buf.Reset()
	if err := WritePCN(&buf, p); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	data[len(data)-4] ^= 0xFF // clobber a weight
	if _, err := ReadPCN(bytes.NewReader(data[:len(data)-9])); err == nil {
		t.Error("truncated body accepted")
	}
}

// TestReadPCNRejectsBadValues: a well-formed file holding values no PCN can
// have — a non-finite edge weight, non-finite or negative internal traffic,
// negative neuron or synapse counts — fails to load, where it would
// otherwise make every downstream metric NaN.
func TestReadPCNRejectsBadValues(t *testing.T) {
	for _, c := range []struct {
		name   string
		mutate func(p *pcn.PCN)
	}{
		{"NaN weight", func(p *pcn.PCN) { p.OutW[len(p.OutW)/2] = math.NaN() }},
		{"+Inf weight", func(p *pcn.PCN) { p.OutW[0] = math.Inf(1) }},
		{"-Inf weight", func(p *pcn.PCN) { p.OutW[len(p.OutW)-1] = math.Inf(-1) }},
		{"NaN internal traffic", func(p *pcn.PCN) { p.InternalTraffic = math.NaN() }},
		{"+Inf internal traffic", func(p *pcn.PCN) { p.InternalTraffic = math.Inf(1) }},
		{"negative internal traffic", func(p *pcn.PCN) { p.InternalTraffic = -1 }},
		{"negative neurons", func(p *pcn.PCN) { p.Neurons[3] = -1 }},
		{"negative synapses", func(p *pcn.PCN) { p.Synapses[p.NumClusters-1] = -5 }},
	} {
		p := samplePCN(t, 3, 10, 40)
		c.mutate(p)
		var buf bytes.Buffer
		if err := WritePCN(&buf, p); err != nil {
			t.Fatal(err)
		}
		if q, err := ReadPCN(&buf); err == nil {
			t.Errorf("%s: ReadPCN accepted the PCN (%d clusters)", c.name, q.NumClusters)
		}
	}
}

func TestPlacementRoundTrip(t *testing.T) {
	mesh := hw.MustMesh(5, 7)
	pl, err := place.Random(20, mesh, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WritePlacement(&buf, pl); err != nil {
		t.Fatal(err)
	}
	got, err := ReadPlacement(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Mesh != pl.Mesh {
		t.Fatalf("mesh %v != %v", got.Mesh, pl.Mesh)
	}
	for c := range pl.PosOf {
		if got.PosOf[c] != pl.PosOf[c] {
			t.Fatal("positions changed")
		}
	}
}

func TestReadPlacementRejectsCorruption(t *testing.T) {
	mesh := hw.MustMesh(3, 3)
	pl, _ := place.Sequential(4, mesh)
	var buf bytes.Buffer
	if err := WritePlacement(&buf, pl); err != nil {
		t.Fatal(err)
	}
	data := append([]byte(nil), buf.Bytes()...)
	// Duplicate core assignment.
	data[len(data)-4] = data[len(data)-8]
	data[len(data)-3] = data[len(data)-7]
	data[len(data)-2] = data[len(data)-6]
	data[len(data)-1] = data[len(data)-5]
	if _, err := ReadPlacement(bytes.NewReader(data)); !errors.Is(err, place.ErrBadConfig) {
		t.Errorf("duplicate assignment: got %v, want ErrBadConfig", err)
	}
	if _, err := ReadPlacement(strings.NewReader("garbage.........")); err == nil {
		t.Error("garbage accepted")
	}
}

func TestWriteDOT(t *testing.T) {
	p := samplePCN(t, 7, 8, 30)
	var buf bytes.Buffer
	if err := WriteDOT(&buf, p, 0); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "digraph") || !strings.Contains(out, "c0 [label=") {
		t.Errorf("DOT output incomplete:\n%s", out)
	}
	// Truncation comment appears when maxEdges is exceeded.
	buf.Reset()
	if err := WriteDOT(&buf, p, 1); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "omitted") {
		t.Error("expected truncation comment")
	}
}

func TestWritePlacementCSV(t *testing.T) {
	mesh := hw.MustMesh(2, 2)
	pl, _ := place.Sequential(3, mesh)
	var buf bytes.Buffer
	if err := WritePlacementCSV(&buf, pl); err != nil {
		t.Fatal(err)
	}
	want := "cluster,row,col\n0,0,0\n1,0,1\n2,1,0\n"
	if buf.String() != want {
		t.Errorf("CSV = %q, want %q", buf.String(), want)
	}
}

// BenchmarkCodecRoundTrip measures binary PCN persistence throughput on
// CNN_16M (4096 clusters, 16.1K connections).
func BenchmarkCodecRoundTrip(b *testing.B) {
	p, err := pcn.Expand(snn.CNN16M(), pcn.DefaultPartition())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := WritePCN(&buf, p); err != nil {
			b.Fatal(err)
		}
		if _, err := ReadPCN(&buf); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(buf.Cap()))
	}
}
