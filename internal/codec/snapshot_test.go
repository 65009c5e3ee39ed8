package codec

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"snnmap/internal/hw"
	"snnmap/internal/mapping"
	"snnmap/internal/place"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden files")

// sampleSnapshot runs a deterministic fine-tuning to convergence and captures
// its first interval snapshot (PCN embedded by the engine).
func sampleSnapshot(tb testing.TB, seed int64) *mapping.Snapshot {
	tb.Helper()
	p := samplePCN(tb, seed, 40, 300)
	rows := (p.NumClusters+4)/5 + 1 // one slack row so fine-tuning can move
	pl, err := place.Sequential(p.NumClusters, hw.MustMesh(rows, 5))
	if err != nil {
		tb.Fatal(err)
	}
	var snap *mapping.Snapshot
	_, err = mapping.Finetune(p, pl, mapping.FDConfig{
		Potential: mapping.L2Sq{},
		Checkpoint: &mapping.CheckpointConfig{Interval: 1, Fn: func(s *mapping.Snapshot) error {
			if snap == nil {
				snap = s
			}
			return nil
		}},
	})
	if err != nil {
		tb.Fatal(err)
	}
	if snap == nil {
		tb.Fatal("fine-tuning converged before the first checkpoint; enlarge the sample")
	}
	return snap
}

func snapshotsEqual(tb testing.TB, a, b *mapping.Snapshot) {
	tb.Helper()
	if a.Potential != b.Potential || a.PotUnit != b.PotUnit || a.PotZero != b.PotZero {
		tb.Fatalf("potential fingerprint differs: %q/%g/%g vs %q/%g/%g",
			a.Potential, a.PotUnit, a.PotZero, b.Potential, b.PotUnit, b.PotZero)
	}
	if a.Lambda != b.Lambda || a.MinGain != b.MinGain {
		tb.Fatalf("config fingerprint differs")
	}
	if a.Clusters != b.Clusters || a.Edges != b.Edges {
		tb.Fatalf("PCN fingerprint differs: %d/%d vs %d/%d", a.Clusters, a.Edges, b.Clusters, b.Edges)
	}
	if a.Stats != b.Stats {
		tb.Fatalf("stats differ: %+v vs %+v", a.Stats, b.Stats)
	}
	if a.Placement.Mesh != b.Placement.Mesh || !slices.Equal(a.Placement.PosOf, b.Placement.PosOf) {
		tb.Fatalf("placements differ")
	}
	if !slices.Equal(a.Force, b.Force) {
		tb.Fatalf("force arrays differ")
	}
	if !slices.Equal(a.QueueIDs, b.QueueIDs) || !slices.Equal(a.QueueTensions, b.QueueTensions) {
		tb.Fatalf("queues differ")
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	withPCN := sampleSnapshot(t, 1)
	bare := *withPCN
	bare.PCN = nil
	for _, tc := range []struct {
		name string
		snap *mapping.Snapshot
	}{
		{"embedded PCN", withPCN},
		{"no PCN", &bare},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := WriteSnapshot(&buf, tc.snap); err != nil {
				t.Fatal(err)
			}
			got, err := ReadSnapshot(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			snapshotsEqual(t, tc.snap, got)
			if (got.PCN != nil) != (tc.snap.PCN != nil) {
				t.Fatalf("embedded-PCN presence not preserved")
			}
			if got.PCN != nil && !pcnsEqual(got.PCN, tc.snap.PCN) {
				t.Fatalf("embedded PCN corrupted by round trip")
			}
		})
	}
}

// TestSnapshotGoldenFile pins the on-disk format: the deterministic sample
// snapshot must encode to exactly the committed bytes, and decoding those
// bytes must re-encode byte-identically. Regenerate with
//
//	go test ./internal/codec -run SnapshotGolden -update-golden
//
// only on a deliberate, version-bumped format change.
func TestSnapshotGoldenFile(t *testing.T) {
	snap := sampleSnapshot(t, 1)
	snap.Stats.Elapsed = 0 // the only wall-clock-dependent field
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, snap); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "snapshot_v1.bin")
	if *updateGolden {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update-golden to create it)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("snapshot encoding drifted from the golden file (%d vs %d bytes); bump the format version instead of changing SNNCKP01 in place",
			buf.Len(), len(want))
	}
	decoded, err := ReadSnapshot(bytes.NewReader(want))
	if err != nil {
		t.Fatal(err)
	}
	var again bytes.Buffer
	if err := WriteSnapshot(&again, decoded); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), want) {
		t.Fatal("decode + re-encode of the golden file is not byte-identical")
	}
}

func TestReadSnapshotRejectsCorruption(t *testing.T) {
	snap := sampleSnapshot(t, 1)
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, snap); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()

	patch := func(off int, b []byte) []byte {
		c := slices.Clone(valid)
		copy(c[off:], b)
		return c
	}
	le64 := func(v uint64) []byte {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		return b[:]
	}
	cases := []struct {
		name    string
		data    []byte
		errPart string
	}{
		{"empty", nil, "magic"},
		{"short magic", valid[:5], "magic"},
		{"wrong magic", patch(0, []byte("XXNNCKP1")), "not a snapshot"},
		{"version skew", patch(0, []byte("SNNCKP99")), "unsupported snapshot version"},
		{"unknown flags", patch(8, le64(0x10)), "unknown flags"},
		{"negative name length", patch(16, le64(1<<63)), "name length"},
		{"huge name length", patch(16, le64(1<<20)), "name length"},
		{"truncated header", valid[:20], ""},
		{"truncated mid-placement", valid[:len(valid)/2], ""},
		{"truncated by one byte", valid[:len(valid)-1], ""},
		{"trailing garbage only after magic", append(slices.Clone(valid[:8]), 0xFF), ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ReadSnapshot(bytes.NewReader(tc.data))
			if err == nil {
				t.Fatal("corrupt input accepted")
			}
			if tc.errPart != "" && !strings.Contains(err.Error(), tc.errPart) {
				t.Fatalf("error %q does not mention %q", err, tc.errPart)
			}
		})
	}

	// A snapshot whose placement names one core twice fails with the
	// placement's own typed error.
	posOf := make([]byte, 4*len(snap.Placement.PosOf))
	for c, idx := range snap.Placement.PosOf {
		binary.LittleEndian.PutUint32(posOf[4*c:], uint32(idx))
	}
	at := bytes.Index(valid, posOf)
	if at < 0 {
		t.Fatal("placement section not found in the encoding")
	}
	if _, err := ReadSnapshot(bytes.NewReader(patch(at+4, posOf[:4]))); !errors.Is(err, place.ErrBadConfig) {
		t.Errorf("duplicate core: got %v, want ErrBadConfig", err)
	}

	// A snapshot whose embedded PCN disagrees with the fingerprint must be
	// rejected even though both halves are individually well-formed. The
	// cluster-count field sits after the potential name and four f64 samples.
	nameLen := int64(binary.LittleEndian.Uint64(valid[16:]))
	clustersOff := 24 + int(nameLen) + 4*8 + 1
	if got := int64(binary.LittleEndian.Uint64(valid[clustersOff:])); got != int64(snap.Clusters) {
		t.Fatalf("cluster-count offset calculation drifted: read %d, want %d", got, snap.Clusters)
	}
}

func TestReadSnapshotPCNFingerprintMismatch(t *testing.T) {
	// Encode with a PCN, then splice in a different PCN payload.
	snap := sampleSnapshot(t, 1)
	other := samplePCN(t, 2, 40, 300)
	if other.NumEdges() == snap.Edges && other.NumClusters == snap.Clusters {
		t.Skip("samples coincide; pick another seed")
	}
	bare := *snap
	bare.PCN = nil
	var head, pcnBuf bytes.Buffer
	if err := WriteSnapshot(&head, &bare); err != nil {
		t.Fatal(err)
	}
	if err := WritePCN(&pcnBuf, other); err != nil {
		t.Fatal(err)
	}
	spliced := slices.Clone(head.Bytes())
	binary.LittleEndian.PutUint64(spliced[8:], 1) // set the embedded-PCN flag
	spliced = append(spliced, pcnBuf.Bytes()...)
	if _, err := ReadSnapshot(bytes.NewReader(spliced)); err == nil ||
		!strings.Contains(err.Error(), "fingerprint") {
		t.Fatalf("mismatched embedded PCN not rejected: %v", err)
	}
}

// TestResumeAfterCodecRoundTrip is the end-to-end crash-safety property: a
// snapshot that has been through the on-disk format resumes bit-identically
// to the uninterrupted run.
func TestResumeAfterCodecRoundTrip(t *testing.T) {
	p := samplePCN(t, 5, 40, 300)
	rows := (p.NumClusters+4)/5 + 1
	mesh := hw.MustMesh(rows, 5)
	oracle, err := place.Sequential(p.NumClusters, mesh)
	if err != nil {
		t.Fatal(err)
	}
	oracleStats, err := mapping.Finetune(p, oracle, mapping.FDConfig{Potential: mapping.L2Sq{}})
	if err != nil {
		t.Fatal(err)
	}
	if oracleStats.Iterations < 3 {
		t.Fatalf("oracle run too short (%d iterations) to test mid-run resume", oracleStats.Iterations)
	}

	var snaps []*mapping.Snapshot
	ckpt, err := place.Sequential(p.NumClusters, mesh)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mapping.Finetune(p, ckpt, mapping.FDConfig{
		Potential: mapping.L2Sq{},
		Checkpoint: &mapping.CheckpointConfig{Interval: 2, Fn: func(s *mapping.Snapshot) error {
			snaps = append(snaps, s)
			return nil
		}},
	}); err != nil {
		t.Fatal(err)
	}
	if len(snaps) == 0 {
		t.Fatal("no snapshots captured")
	}
	for _, snap := range snaps {
		var buf bytes.Buffer
		if err := WriteSnapshot(&buf, snap); err != nil {
			t.Fatal(err)
		}
		decoded, err := ReadSnapshot(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		// Resume purely from the file contents: nil PCN, embedded one used.
		pl, stats, err := mapping.ResumeFinetune(context.Background(), nil, decoded, mapping.FDConfig{Potential: mapping.L2Sq{}})
		if err != nil {
			t.Fatal(err)
		}
		stats.Elapsed, oracleStats.Elapsed = 0, 0
		if stats != oracleStats {
			t.Fatalf("resume from iteration %d: stats %+v, oracle %+v", snap.Stats.Iterations, stats, oracleStats)
		}
		if !slices.Equal(pl.PosOf, oracle.PosOf) {
			t.Fatalf("resume from iteration %d: placement diverged from oracle", snap.Stats.Iterations)
		}
	}
}
