// Package hw models the target neuromorphic hardware of §3.1: a 2D mesh of
// homogeneous neurosynaptic cores, each bound to a router, with per-core
// capacity constraints (CON_npc, CON_spc) and per-hop energy/latency
// parameters (Table 2). It also carries the published platform capacities of
// Table 1 as presets.
package hw

import (
	"fmt"
	"math"

	"snnmap/internal/geom"
)

// Mesh describes the interconnection topology: Rows×Cols cores indexed from
// (0,0) at the top-left to (Rows-1, Cols-1) at the bottom-right (Eq. 1).
type Mesh struct {
	Rows, Cols int
}

// NewMesh returns a mesh of the given size. It returns an error if either
// dimension is not positive.
func NewMesh(rows, cols int) (Mesh, error) {
	if rows <= 0 || cols <= 0 {
		return Mesh{}, fmt.Errorf("hw: invalid mesh size %dx%d", rows, cols)
	}
	return Mesh{Rows: rows, Cols: cols}, nil
}

// MustMesh is NewMesh that panics on error; intended for constants and tests.
func MustMesh(rows, cols int) Mesh {
	m, err := NewMesh(rows, cols)
	if err != nil {
		panic(err)
	}
	return m
}

// Cores returns the total number of cores N*M.
func (m Mesh) Cores() int { return m.Rows * m.Cols }

// Contains reports whether p is a valid core coordinate.
func (m Mesh) Contains(p geom.Point) bool {
	return p.X >= 0 && p.X < m.Rows && p.Y >= 0 && p.Y < m.Cols
}

// Index flattens a coordinate to a dense core index in row-major order.
func (m Mesh) Index(p geom.Point) int { return p.X*m.Cols + p.Y }

// Coord expands a dense core index back to a coordinate.
func (m Mesh) Coord(idx int) geom.Point {
	return geom.Point{X: idx / m.Cols, Y: idx % m.Cols}
}

// String implements fmt.Stringer.
func (m Mesh) String() string { return fmt.Sprintf("%dx%d", m.Rows, m.Cols) }

// Constraints holds the per-core capacity limits of §3.1. The capacity
// fields are the partitioner's: every cluster it emits fits one core, so
// placement and repair read only SpareRows.
type Constraints struct {
	// NeuronsPerCore is CON_npc, the maximum number of neurons a core can
	// host. Zero means unconstrained.
	NeuronsPerCore int
	// SynapsesPerCore is CON_spc, the maximum number of synapses a core can
	// store. Zero means unconstrained.
	SynapsesPerCore int
	// SpareRows reserves this many rows at the bottom of the mesh as hot
	// spares, the way DRAM and wafer-scale parts provision redundancy:
	// placement and fine-tuning never use reserved rows, keeping them free
	// so a failed row can later be retired wholesale onto one of them
	// (mapping.RemapRows). Zero means no reservation.
	SpareRows int
}

// UsableRows returns how many mesh rows remain available for placement
// under the SpareRows reservation (never negative). With no reservation it
// is the full row count.
func (c Constraints) UsableRows(m Mesh) int {
	if c.SpareRows <= 0 {
		return m.Rows
	}
	if c.SpareRows >= m.Rows {
		return 0
	}
	return m.Rows - c.SpareRows
}

// CostModel holds the per-spike interconnect cost parameters of Eqs. 9–11.
type CostModel struct {
	// RouterEnergy is EN_r, the energy to route one spike through a router.
	RouterEnergy float64
	// WireEnergy is EN_w, the energy to move one spike across one
	// router-to-router link.
	WireEnergy float64
	// RouterLatency is L_r, the delay added by each router on the path.
	RouterLatency float64
	// WireLatency is L_w, the delay of one link traversal.
	WireLatency float64
}

// SpikeEnergy returns the energy for one spike traveling `hops` links
// (Eq. 9's per-spike term): (hops+1) routers plus hops wires.
func (c CostModel) SpikeEnergy(hops int) float64 {
	return float64(hops+1)*c.RouterEnergy + float64(hops)*c.WireEnergy
}

// SpikeLatency returns the transmission time for one spike traveling `hops`
// links (Eqs. 10–11): (hops+1) routers plus hops wires.
func (c CostModel) SpikeLatency(hops int) float64 {
	return float64(hops+1)*c.RouterLatency + float64(hops)*c.WireLatency
}

// MeshFor returns the smallest square mesh holding n clusters — the sizing
// rule that reproduces every Table 3 "Target Hardware" column (e.g. 6 956
// clusters → 84×84).
func MeshFor(n int) Mesh {
	side := max(int(math.Sqrt(float64(n))), 1)
	for side*side < n {
		side++
	}
	return Mesh{Rows: side, Cols: side}
}

// DefaultCostModel returns the Table 2 parameters of the paper's target
// hardware: EN_r=1, EN_w=0.1, L_r=1, L_w=0.01.
func DefaultCostModel() CostModel {
	return CostModel{RouterEnergy: 1, WireEnergy: 0.1, RouterLatency: 1, WireLatency: 0.01}
}

// DefaultConstraints returns the Table 2 capacity limits: CON_npc=4096,
// CON_spc=64K.
func DefaultConstraints() Constraints {
	return Constraints{NeuronsPerCore: 4096, SynapsesPerCore: 64 * 1024}
}
