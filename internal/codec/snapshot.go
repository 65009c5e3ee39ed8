package codec

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"time"

	"snnmap/internal/hw"
	"snnmap/internal/mapping"
	"snnmap/internal/place"
)

// Snapshot format (SNNCKP01, little-endian throughout):
//
//	[8]  magic "SNNCKP01"
//	u64  flags (bit 0: an encoded PCN follows the queue section)
//	i64  potential-name length, then that many bytes
//	f64  potential u(1), f64 potential u(0)
//	f64  lambda, f64 minGain
//	u8   reserved (written 0, ignored on read)
//	i64  clusters, i64 edges                      (PCN fingerprint)
//	i64  iterations, i64 swaps, i64 tensionChecks
//	f64  initialEnergy, f64 finalEnergy
//	i64  elapsed (nanoseconds)
//	i64  mesh rows, i64 mesh cols
//	[]i32 posOf (clusters entries)                (placement)
//	i64  force length, []f64 forces               (always 4·rows·cols)
//	i64  queue length, []i32 ids, []f64 tensions
//	     WritePCN payload                         (only when flags bit 0)
//
// The embedded PCN must be the final section: ReadPCN buffers its reader, so
// nothing can reliably follow it. The encoding is fully deterministic — the
// same snapshot always produces the same bytes — which the golden-file test
// pins.
var snapshotMagic = [8]byte{'S', 'N', 'N', 'C', 'K', 'P', '0', '1'}

// snapshotMagicPrefix distinguishes "snapshot from another format version"
// (a dedicated error, so callers can suggest re-checkpointing) from "not a
// snapshot at all".
var snapshotMagicPrefix = [6]byte{'S', 'N', 'N', 'C', 'K', 'P'}

const maxPotNameLen = 256

// WriteSnapshot serializes a fine-tuning snapshot, embedding its PCN when
// snap.PCN is non-nil (making the file self-contained for resume).
func WriteSnapshot(w io.Writer, snap *mapping.Snapshot) error {
	if err := snap.Validate(); err != nil {
		return fmt.Errorf("codec: refusing to write invalid snapshot: %w", err)
	}
	name := []byte(snap.Potential)
	if len(name) > maxPotNameLen {
		return fmt.Errorf("codec: potential name too long (%d bytes)", len(name))
	}
	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := bw.Write(snapshotMagic[:]); err != nil {
		return err
	}
	var flags uint64
	if snap.PCN != nil {
		flags |= 1
	}
	if err := binary.Write(bw, binary.LittleEndian, flags); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, int64(len(name))); err != nil {
		return err
	}
	if _, err := bw.Write(name); err != nil {
		return err
	}
	mesh := snap.Placement.Mesh
	for _, v := range []interface{}{
		snap.PotUnit, snap.PotZero,
		snap.Lambda, snap.MinGain,
		uint8(0), // reserved
		int64(snap.Clusters), snap.Edges,
		int64(snap.Stats.Iterations), snap.Stats.Swaps, snap.Stats.TensionChecks,
		snap.Stats.InitialEnergy, snap.Stats.FinalEnergy,
		int64(snap.Stats.Elapsed),
		int64(mesh.Rows), int64(mesh.Cols),
		snap.Placement.PosOf,
		int64(len(snap.Force)), snap.Force,
		int64(len(snap.QueueIDs)), snap.QueueIDs, snap.QueueTensions,
	} {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	if snap.PCN != nil {
		if err := WritePCN(bw, snap.PCN); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadSnapshot deserializes a snapshot written by WriteSnapshot and validates
// it (mapping.Snapshot.Validate), so a successful read always yields a state
// ResumeFinetune can work from. Snapshots from other format versions are
// rejected with a distinct "unsupported snapshot version" error.
func ReadSnapshot(r io.Reader) (*mapping.Snapshot, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	var magic [8]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("codec: reading magic: %w", err)
	}
	if magic != snapshotMagic {
		if bytes.HasPrefix(magic[:], snapshotMagicPrefix[:]) {
			return nil, fmt.Errorf("codec: unsupported snapshot version %q (this build reads %q)", magic[6:], snapshotMagic[6:])
		}
		return nil, fmt.Errorf("codec: not a snapshot file (magic %q)", magic[:])
	}
	var flags uint64
	if err := binary.Read(br, binary.LittleEndian, &flags); err != nil {
		return nil, err
	}
	if flags&^uint64(1) != 0 {
		return nil, fmt.Errorf("codec: corrupt snapshot: unknown flags %#x", flags)
	}
	var nameLen int64
	if err := binary.Read(br, binary.LittleEndian, &nameLen); err != nil {
		return nil, err
	}
	if nameLen < 0 || nameLen > maxPotNameLen {
		return nil, fmt.Errorf("codec: corrupt snapshot: potential name length %d", nameLen)
	}
	name := make([]byte, nameLen)
	if _, err := io.ReadFull(br, name); err != nil {
		return nil, err
	}
	snap := &mapping.Snapshot{Potential: string(name)}
	var (
		fixed struct {
			PotUnit, PotZero float64
			Lambda, MinGain  float64
			Reserved         uint8
			Clusters, Edges  int64
			Iterations       int64
			Swaps, Checks    int64
			InitialEnergy    float64
			FinalEnergy      float64
			ElapsedNanos     int64
			Rows, Cols       int64
		}
	)
	if err := binary.Read(br, binary.LittleEndian, &fixed); err != nil {
		return nil, err
	}
	const (
		maxSide     = int64(1) << 20
		maxClusters = int64(1) << 31
		maxEdges    = int64(1) << 40
	)
	if fixed.Rows <= 0 || fixed.Rows > maxSide || fixed.Cols <= 0 || fixed.Cols > maxSide {
		return nil, fmt.Errorf("codec: corrupt snapshot: %dx%d mesh", fixed.Rows, fixed.Cols)
	}
	mesh, err := hw.NewMesh(int(fixed.Rows), int(fixed.Cols))
	if err != nil {
		return nil, fmt.Errorf("codec: corrupt snapshot: %w", err)
	}
	cores := int64(mesh.Cores())
	if fixed.Clusters < 0 || fixed.Clusters > maxClusters || fixed.Clusters > cores {
		return nil, fmt.Errorf("codec: corrupt snapshot: %d clusters on %v", fixed.Clusters, mesh)
	}
	if fixed.Edges < 0 || fixed.Edges > maxEdges {
		return nil, fmt.Errorf("codec: corrupt snapshot: edge count %d", fixed.Edges)
	}
	snap.PotUnit, snap.PotZero = fixed.PotUnit, fixed.PotZero
	snap.Lambda, snap.MinGain = fixed.Lambda, fixed.MinGain
	snap.Clusters, snap.Edges = int(fixed.Clusters), fixed.Edges
	snap.Stats = mapping.FDStats{
		Iterations:    int(fixed.Iterations),
		Swaps:         fixed.Swaps,
		TensionChecks: fixed.Checks,
		InitialEnergy: fixed.InitialEnergy,
		FinalEnergy:   fixed.FinalEnergy,
		Elapsed:       time.Duration(fixed.ElapsedNanos),
	}
	pl, err := place.New(int(fixed.Clusters), mesh)
	if err != nil {
		return nil, err
	}
	posOf := make([]int32, fixed.Clusters)
	if err := binary.Read(br, binary.LittleEndian, posOf); err != nil {
		return nil, fmt.Errorf("codec: truncated snapshot placement: %w", err)
	}
	for c, idx := range posOf {
		if idx < 0 || int64(idx) >= cores {
			return nil, fmt.Errorf("codec: snapshot cluster %d on invalid core %d", c, idx)
		}
		if err := pl.Assign(c, idx); err != nil {
			return nil, fmt.Errorf("codec: snapshot: %w", err)
		}
	}
	snap.Placement = pl
	var forceLen int64
	if err := binary.Read(br, binary.LittleEndian, &forceLen); err != nil {
		return nil, err
	}
	if forceLen != 4*cores {
		return nil, fmt.Errorf("codec: corrupt snapshot: force length %d, mesh %v needs %d", forceLen, mesh, 4*cores)
	}
	if snap.Force, err = readSlice[float64](br, forceLen); err != nil {
		return nil, err
	}
	var queueLen int64
	if err := binary.Read(br, binary.LittleEndian, &queueLen); err != nil {
		return nil, err
	}
	if queueLen < 0 || queueLen > 2*cores {
		return nil, fmt.Errorf("codec: corrupt snapshot: queue length %d on %v", queueLen, mesh)
	}
	if snap.QueueIDs, err = readSlice[int32](br, queueLen); err != nil {
		return nil, err
	}
	if snap.QueueTensions, err = readSlice[float64](br, queueLen); err != nil {
		return nil, err
	}
	if flags&1 != 0 {
		if snap.PCN, err = ReadPCN(br); err != nil {
			return nil, fmt.Errorf("codec: embedded PCN: %w", err)
		}
	}
	if err := snap.Validate(); err != nil {
		return nil, fmt.Errorf("codec: deserialized snapshot invalid: %w", err)
	}
	if snap.PCN != nil && (snap.PCN.NumClusters != snap.Clusters || snap.PCN.NumEdges() != snap.Edges) {
		return nil, fmt.Errorf("codec: snapshot embeds a PCN with %d clusters/%d edges but fingerprints %d/%d",
			snap.PCN.NumClusters, snap.PCN.NumEdges(), snap.Clusters, snap.Edges)
	}
	return snap, nil
}
