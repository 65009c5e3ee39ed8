package pcn

import "snnmap/internal/snn"

// The names below are what is left of a multilevel partitioner that this
// package no longer has: an explicit graph has one partitioner, Algorithm 1
// (Partition). They stay only because the benchmark module still compiles
// against them; once it calls Partition directly they go, together with
// PartitionConfig.Multilevel (ROADMAP.md item 2(b)).

// MultilevelOptions is ignored.
//
// Deprecated: Partition runs Algorithm 1 whatever PartitionConfig.Multilevel
// holds; PartitionConfig.Workers fans out its edge merge.
type MultilevelOptions struct {
	Workers int
}

// MultilevelStats describes a PartitionMultilevel call. For Algorithm 1 it
// reads one level, no refinement moves, and the flat cut on both sides.
//
// Deprecated: only PartitionMultilevel returns it.
type MultilevelStats struct {
	Levels                 int
	FineVertices           int
	FineEdges              int64
	CoarsestVertices       int
	Moves                  int64
	CutFlat, CutMultilevel float64
	UsedFlat               bool
}

// PartitionMultilevel returns Partition(g, cfg) and its one-level stats.
//
// Deprecated: call Partition.
func PartitionMultilevel(g *snn.Graph, cfg PartitionConfig) (*Result, MultilevelStats, error) {
	r, err := Partition(g, cfg)
	if err != nil {
		return nil, MultilevelStats{}, err
	}
	n, cut := r.PCN.NumClusters, r.PCN.TotalWeight()
	return r, MultilevelStats{Levels: 1, FineVertices: n, FineEdges: r.PCN.NumEdges(), CoarsestVertices: n,
		CutFlat: cut, CutMultilevel: cut, UsedFlat: true}, nil
}
