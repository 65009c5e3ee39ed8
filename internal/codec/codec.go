// Package codec persists and exports the library's artifacts: a compact
// deterministic binary format for PCNs and placements (so a 67-million-edge
// cluster graph can be partitioned once and mapped many times), JSON export
// for small graphs, Graphviz DOT export for visual inspection, and CSV
// export for metric grids.
package codec

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"snnmap/internal/hw"
	"snnmap/internal/pcn"
	"snnmap/internal/place"
)

// Format magics; a trailing version digit allows evolution.
var (
	pcnMagic       = [8]byte{'S', 'N', 'N', 'P', 'C', 'N', '0', '1'}
	placementMagic = [8]byte{'S', 'N', 'N', 'P', 'L', 'C', '0', '1'}
)

const maxNameLen = 1 << 16

// WritePCN serializes a PCN in the binary format.
func WritePCN(w io.Writer, p *pcn.PCN) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := bw.Write(pcnMagic[:]); err != nil {
		return err
	}
	name := []byte(p.Name)
	if len(name) > maxNameLen {
		return fmt.Errorf("codec: PCN name too long (%d bytes)", len(name))
	}
	header := []int64{int64(len(name)), int64(p.NumClusters), p.NumEdges()}
	if err := binary.Write(bw, binary.LittleEndian, header); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, p.InternalTraffic); err != nil {
		return err
	}
	if _, err := bw.Write(name); err != nil {
		return err
	}
	for _, arr := range []interface{}{p.Neurons, p.Synapses, p.Layer, p.OutOff, p.OutTo, p.OutW} {
		if err := binary.Write(bw, binary.LittleEndian, arr); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadPCN deserializes a PCN written by WritePCN and validates it.
func ReadPCN(r io.Reader) (*pcn.PCN, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	var magic [8]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("codec: reading magic: %w", err)
	}
	if magic != pcnMagic {
		return nil, fmt.Errorf("codec: not a PCN file (magic %q)", magic[:])
	}
	var header [3]int64
	if err := binary.Read(br, binary.LittleEndian, &header); err != nil {
		return nil, err
	}
	nameLen, clusters, edges := header[0], header[1], header[2]
	// A header can claim arbitrary sizes; never trust it with a single
	// allocation. Hard caps bound the arithmetic, and the chunked readers
	// below fail fast on truncated input before large memory is committed.
	const (
		maxClusters = int64(1) << 31
		maxEdges    = int64(1) << 40
	)
	if nameLen < 0 || nameLen > maxNameLen || clusters < 0 || clusters > maxClusters || edges < 0 || edges > maxEdges {
		return nil, fmt.Errorf("codec: corrupt PCN header (%d, %d, %d)", nameLen, clusters, edges)
	}
	p := &pcn.PCN{NumClusters: int(clusters)}
	if err := binary.Read(br, binary.LittleEndian, &p.InternalTraffic); err != nil {
		return nil, err
	}
	name := make([]byte, nameLen)
	if _, err := io.ReadFull(br, name); err != nil {
		return nil, err
	}
	p.Name = string(name)
	var err error
	if p.Neurons, err = readSlice[int32](br, clusters); err != nil {
		return nil, err
	}
	if p.Synapses, err = readSlice[int64](br, clusters); err != nil {
		return nil, err
	}
	if p.Layer, err = readSlice[int32](br, clusters); err != nil {
		return nil, err
	}
	if p.OutOff, err = readSlice[int64](br, clusters+1); err != nil {
		return nil, err
	}
	if p.OutTo, err = readSlice[int32](br, edges); err != nil {
		return nil, err
	}
	if p.OutW, err = readSlice[float64](br, edges); err != nil {
		return nil, err
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("codec: deserialized PCN invalid: %w", err)
	}
	return p, nil
}

// readChunk is the per-read element cap of readSlice: a
// corrupt header claiming billions of elements fails on the first short
// read instead of committing the full allocation up front.
const readChunk = 1 << 20

// readSlice reads n little-endian elements of T, readChunk at a time.
func readSlice[T int32 | int64 | float64](r io.Reader, n int64) ([]T, error) {
	out := make([]T, 0, min(n, readChunk))
	for int64(len(out)) < n {
		chunk := make([]T, min(n-int64(len(out)), readChunk))
		if err := binary.Read(r, binary.LittleEndian, chunk); err != nil {
			return nil, fmt.Errorf("codec: truncated %T array (%d of %d read): %w", chunk[0], len(out), n, err)
		}
		out = append(out, chunk...)
	}
	return out, nil
}

// WritePlacement serializes a placement.
func WritePlacement(w io.Writer, pl *place.Placement) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := bw.Write(placementMagic[:]); err != nil {
		return err
	}
	header := []int64{int64(pl.Mesh.Rows), int64(pl.Mesh.Cols), int64(len(pl.PosOf))}
	if err := binary.Write(bw, binary.LittleEndian, header); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, pl.PosOf); err != nil {
		return err
	}
	return bw.Flush()
}

// ReadPlacement deserializes a placement written by WritePlacement and
// validates it.
func ReadPlacement(r io.Reader) (*place.Placement, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	var magic [8]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("codec: reading magic: %w", err)
	}
	if magic != placementMagic {
		return nil, fmt.Errorf("codec: not a placement file (magic %q)", magic[:])
	}
	var header [3]int64
	if err := binary.Read(br, binary.LittleEndian, &header); err != nil {
		return nil, err
	}
	rows, cols, clusters := header[0], header[1], header[2]
	// Bound the mesh before allocating anything proportional to it.
	const maxSide = int64(1) << 20
	if rows <= 0 || rows > maxSide || cols <= 0 || cols > maxSide {
		return nil, fmt.Errorf("codec: corrupt placement header: %dx%d mesh", rows, cols)
	}
	mesh, err := hw.NewMesh(int(rows), int(cols))
	if err != nil {
		return nil, fmt.Errorf("codec: corrupt placement header: %w", err)
	}
	if clusters < 0 || clusters > int64(mesh.Cores()) {
		return nil, fmt.Errorf("codec: corrupt placement header: %d clusters on %v", clusters, mesh)
	}
	pl, err := place.New(int(clusters), mesh)
	if err != nil {
		return nil, err
	}
	posOf := make([]int32, clusters)
	if err := binary.Read(br, binary.LittleEndian, posOf); err != nil {
		return nil, err
	}
	for c, idx := range posOf {
		if idx < 0 || int(idx) >= mesh.Cores() {
			return nil, fmt.Errorf("codec: cluster %d on invalid core %d", c, idx)
		}
		if err := pl.Assign(c, idx); err != nil {
			return nil, fmt.Errorf("codec: %w", err)
		}
	}
	if err := pl.Validate(); err != nil {
		return nil, fmt.Errorf("codec: deserialized placement invalid: %w", err)
	}
	return pl, nil
}
