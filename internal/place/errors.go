package place

import "errors"

// Sentinel errors shared by the placement pipeline. They live here because
// place sits at the bottom of the mapping/noc import graph; internal/mapping
// and internal/noc re-export the ones they raise so callers can errors.Is
// against either package.
var (
	// ErrCapacityExceeded reports that a mesh, or the NoC simulator's
	// spike budget, cannot hold the requested workload.
	ErrCapacityExceeded = errors.New("capacity exceeded")
	// ErrUnplaceable reports that no legal placement exists on the healthy
	// portion of the mesh.
	ErrUnplaceable = errors.New("unplaceable")
	// ErrCanceled reports that the caller's context canceled the operation.
	ErrCanceled = errors.New("canceled")
	// ErrBadConfig reports an invalid configuration (see noc.Config.Validate,
	// mapping.FDConfig.Validate and pcn.Expand).
	ErrBadConfig = errors.New("invalid config")
)
