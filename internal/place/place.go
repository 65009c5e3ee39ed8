// Package place represents placements: the injective function P: V_P → S of
// Eq. 7 that assigns each cluster of a PCN to a distinct core of the mesh.
package place

import (
	"fmt"
	"math/rand"

	"snnmap/internal/geom"
	"snnmap/internal/hw"
)

// None marks an unassigned slot in either direction of the mapping.
const None int32 = -1

// Placement is a bijection between clusters and a subset of mesh cores,
// stored densely in both directions for O(1) lookup and swap.
type Placement struct {
	Mesh hw.Mesh
	// PosOf[c] is the flattened core index of cluster c (None if unplaced).
	PosOf []int32
	// ClusterAt[idx] is the cluster on core idx (None if the core is free).
	ClusterAt []int32
}

// New returns an empty placement for numClusters clusters on the mesh.
// It returns an error wrapping ErrCapacityExceeded if the mesh cannot hold
// all clusters.
func New(numClusters int, mesh hw.Mesh) (*Placement, error) {
	if numClusters > mesh.Cores() {
		return nil, fmt.Errorf("place: %d clusters exceed %v mesh capacity %d: %w", numClusters, mesh, mesh.Cores(), ErrCapacityExceeded)
	}
	p := &Placement{
		Mesh:      mesh,
		PosOf:     make([]int32, numClusters),
		ClusterAt: make([]int32, mesh.Cores()),
	}
	for i := range p.PosOf {
		p.PosOf[i] = None
	}
	for i := range p.ClusterAt {
		p.ClusterAt[i] = None
	}
	return p, nil
}

// NumClusters returns the number of clusters the placement covers.
func (p *Placement) NumClusters() int { return len(p.PosOf) }

// Assign places cluster c on the core with flattened index idx. It returns
// an error wrapping ErrBadConfig, and changes nothing, if either side is
// already taken (placements are injective), as in a decoded placement that
// names one core twice.
func (p *Placement) Assign(c int, idx int32) error {
	if p.PosOf[c] != None {
		return fmt.Errorf("place: cluster %d already placed at %d: %w", c, p.PosOf[c], ErrBadConfig)
	}
	if p.ClusterAt[idx] != None {
		return fmt.Errorf("place: core %d assigned twice (holds cluster %d): %w", idx, p.ClusterAt[idx], ErrBadConfig)
	}
	p.PosOf[c] = idx
	p.ClusterAt[idx] = int32(c)
	return nil
}

// Move relocates cluster c to the empty core idx, freeing its current core.
// It is the primitive behind incremental remapping after core failures.
func (p *Placement) Move(c int, idx int32) error {
	if p.ClusterAt[idx] != None {
		return fmt.Errorf("place: core %d already holds cluster %d: %w", idx, p.ClusterAt[idx], ErrUnplaceable)
	}
	if old := p.PosOf[c]; old != None {
		p.ClusterAt[old] = None
	}
	p.PosOf[c] = idx
	p.ClusterAt[idx] = int32(c)
	return nil
}

// Of returns the mesh coordinate of cluster c.
func (p *Placement) Of(c int) geom.Point { return p.Mesh.Coord(int(p.PosOf[c])) }

// SwapCores exchanges the contents of two cores (either may be empty).
func (p *Placement) SwapCores(a, b int32) {
	ca, cb := p.ClusterAt[a], p.ClusterAt[b]
	p.ClusterAt[a], p.ClusterAt[b] = cb, ca
	if ca != None {
		p.PosOf[ca] = b
	}
	if cb != None {
		p.PosOf[cb] = a
	}
}

// Clone returns a deep copy.
func (p *Placement) Clone() *Placement {
	q := &Placement{
		Mesh:      p.Mesh,
		PosOf:     make([]int32, len(p.PosOf)),
		ClusterAt: make([]int32, len(p.ClusterAt)),
	}
	copy(q.PosOf, p.PosOf)
	copy(q.ClusterAt, p.ClusterAt)
	return q
}

// Validate checks that the placement is a complete injective mapping: every
// cluster is placed, on a valid core, and the two directions agree.
func (p *Placement) Validate() error {
	if len(p.ClusterAt) != p.Mesh.Cores() {
		return fmt.Errorf("place: ClusterAt length %d, want %d", len(p.ClusterAt), p.Mesh.Cores())
	}
	for c, idx := range p.PosOf {
		if idx == None {
			return fmt.Errorf("place: cluster %d is unplaced", c)
		}
		if int(idx) < 0 || int(idx) >= p.Mesh.Cores() {
			return fmt.Errorf("place: cluster %d placed on invalid core %d", c, idx)
		}
		if p.ClusterAt[idx] != int32(c) {
			return fmt.Errorf("place: core %d holds %d, but cluster %d claims it", idx, p.ClusterAt[idx], c)
		}
	}
	placed := 0
	for idx, c := range p.ClusterAt {
		if c == None {
			continue
		}
		placed++
		if int(c) < 0 || int(c) >= len(p.PosOf) {
			return fmt.Errorf("place: core %d holds invalid cluster %d", idx, c)
		}
		if p.PosOf[c] != int32(idx) {
			return fmt.Errorf("place: cluster %d claims core %d, but sits on %d", c, p.PosOf[c], idx)
		}
	}
	if placed != len(p.PosOf) {
		return fmt.Errorf("place: %d cores occupied, want %d", placed, len(p.PosOf))
	}
	return nil
}

// ValidateDefects checks that no cluster sits on a dead core of the defect
// map. A nil map always validates.
func (p *Placement) ValidateDefects(d *hw.DefectMap) error {
	if d == nil {
		return nil
	}
	for c, idx := range p.PosOf {
		if idx != None && d.IsDead(int(idx)) {
			return fmt.Errorf("place: cluster %d sits on dead core %d: %w", c, idx, ErrUnplaceable)
		}
	}
	return nil
}

// Sequential places cluster i on core i in row-major order.
func Sequential(numClusters int, mesh hw.Mesh) (*Placement, error) {
	p, err := New(numClusters, mesh)
	if err != nil {
		return nil, err
	}
	for c := 0; c < numClusters; c++ {
		p.Assign(c, int32(c))
	}
	return p, nil
}

// Random places cluster c on core rng.Perm(cores)[c]: a uniformly random
// placement drawn inside the caller's rng stream (PSO and DFSynthesizer start
// from it). The paper's random baseline is the mapping pipeline over
// curve.Random, which gives the same placement on a PCN in topological
// order.
func Random(numClusters int, mesh hw.Mesh, rng *rand.Rand) (*Placement, error) {
	p, err := New(numClusters, mesh)
	if err != nil {
		return nil, err
	}
	cores := rng.Perm(mesh.Cores())
	for c := 0; c < numClusters; c++ {
		p.Assign(c, int32(cores[c]))
	}
	return p, nil
}
