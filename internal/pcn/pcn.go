// Package pcn implements the Partitioned Cluster Network of §3.2: the graph
// G_PCN = (V_P, E_P, w_P) whose nodes are clusters of neurons (at most one
// cluster per core) and whose edge weights are inter-cluster communication
// traffic volumes (Eq. 5). It provides the paper's Algorithm 1 partitioner
// for explicit SNN graphs and an analytic expander for layer-spec Nets that
// produces the identical cluster structure at billion-neuron scale.
package pcn

import (
	"fmt"
	"math"
	"sync"
)

// PCN is a partitioned cluster network in CSR form. Cluster indices follow
// the partition order (layer-major for layered applications), which is the
// order the topological initial-placement pipeline consumes.
type PCN struct {
	// Name identifies the source application.
	Name string
	// NumClusters is |V_P|.
	NumClusters int
	// Neurons[i] and Synapses[i] are cluster i's configured neuron and
	// (incoming) synapse counts, used for constraint verification.
	Neurons  []int32
	Synapses []int64
	// Layer[i] tags cluster i with its source layer (-1 when unknown);
	// layer-by-layer baselines (TrueNorth) consume it.
	Layer []int32
	// Directed edges in CSR by source cluster. Within one cluster's range
	// targets are strictly increasing (parallel edges are merged by
	// summing weights).
	OutOff []int64
	OutTo  []int32
	OutW   []float64
	// InternalTraffic is the total spike traffic between neurons that were
	// partitioned into the same cluster; it never enters the interconnect
	// and is excluded from E_P.
	InternalTraffic float64

	adj *adjacency // lazily built view, see lazyAdjacency()
}

// adjacency holds the lazily built view of one PCN's edges. It hangs off the
// PCN by pointer so the PCN itself stays a plain copyable value (a copy
// shares the view, which describes the edge arrays the copy aliases too).
type adjacency struct {
	symOnce sync.Once
	sym     *Symmetric
}

// adjMu guards only the first allocation of PCN.adj; the build itself runs
// under the per-PCN sync.Once, so concurrent mappings of one PCN build the
// view exactly once and mappings of different PCNs never wait on each
// other's build.
var adjMu sync.Mutex

func (p *PCN) lazyAdjacency() *adjacency {
	adjMu.Lock()
	defer adjMu.Unlock()
	if p.adj == nil {
		p.adj = new(adjacency)
	}
	return p.adj
}

// NumEdges returns |E_P| (directed, merged).
func (p *PCN) NumEdges() int64 {
	if len(p.OutOff) == 0 {
		return 0
	}
	return p.OutOff[p.NumClusters]
}

// TotalWeight returns Σ w_P(e) over all edges, the denominator of Eq. 10.
func (p *PCN) TotalWeight() float64 {
	var total float64
	for _, w := range p.OutW {
		total += w
	}
	return total
}

// TotalNeurons returns the neuron count across all clusters.
func (p *PCN) TotalNeurons() int64 {
	var total int64
	for _, n := range p.Neurons {
		total += int64(n)
	}
	return total
}

// TotalSynapses returns the synapse count across all clusters.
func (p *PCN) TotalSynapses() int64 {
	var total int64
	for _, s := range p.Synapses {
		total += s
	}
	return total
}

// OutEdges returns cluster i's outgoing targets and weights. The slices
// alias the PCN's storage.
func (p *PCN) OutEdges(i int) ([]int32, []float64) {
	lo, hi := p.OutOff[i], p.OutOff[i+1]
	return p.OutTo[lo:hi], p.OutW[lo:hi]
}

// InDegrees returns the number of incoming edges per cluster (used by the
// topological sort's source set).
func (p *PCN) InDegrees() []int32 {
	deg := make([]int32, p.NumClusters)
	for _, to := range p.OutTo {
		deg[to]++
	}
	return deg
}

// NumLayers returns 1 + the maximum layer tag, or 0 when layers are unknown.
func (p *PCN) NumLayers() int {
	max := int32(-1)
	for _, l := range p.Layer {
		if l > max {
			max = l
		}
	}
	return int(max + 1)
}

// Validate checks structural invariants.
func (p *PCN) Validate() error {
	if p.NumClusters < 0 {
		return fmt.Errorf("pcn: negative cluster count")
	}
	if len(p.Neurons) != p.NumClusters || len(p.Synapses) != p.NumClusters || len(p.Layer) != p.NumClusters {
		return fmt.Errorf("pcn: per-cluster slices disagree with NumClusters=%d", p.NumClusters)
	}
	if len(p.OutOff) != p.NumClusters+1 {
		return fmt.Errorf("pcn: OutOff length %d, want %d", len(p.OutOff), p.NumClusters+1)
	}
	if len(p.OutW) != len(p.OutTo) {
		return fmt.Errorf("pcn: OutW length %d, OutTo length %d", len(p.OutW), len(p.OutTo))
	}
	// Offsets must form a valid CSR before anything slices with them.
	if p.OutOff[0] != 0 {
		return fmt.Errorf("pcn: OutOff[0] = %d, want 0", p.OutOff[0])
	}
	if p.OutOff[p.NumClusters] != int64(len(p.OutTo)) {
		return fmt.Errorf("pcn: OutOff[%d] = %d, want %d", p.NumClusters, p.OutOff[p.NumClusters], len(p.OutTo))
	}
	if t := p.InternalTraffic; t < 0 || math.IsNaN(t) || math.IsInf(t, 0) {
		return fmt.Errorf("pcn: internal traffic %g, want a finite value ≥ 0", t)
	}
	for i := 0; i < p.NumClusters; i++ {
		if p.OutOff[i] < 0 || p.OutOff[i] > p.OutOff[i+1] {
			return fmt.Errorf("pcn: OutOff not monotone at cluster %d", i)
		}
		if p.Neurons[i] < 0 || p.Synapses[i] < 0 {
			return fmt.Errorf("pcn: cluster %d has %d neurons and %d synapses", i, p.Neurons[i], p.Synapses[i])
		}
	}
	for i := 0; i < p.NumClusters; i++ {
		tos, ws := p.OutEdges(i)
		for k, to := range tos {
			if to < 0 || int(to) >= p.NumClusters {
				return fmt.Errorf("pcn: cluster %d has out-of-range edge target %d", i, to)
			}
			if int(to) == i {
				return fmt.Errorf("pcn: cluster %d has a self-edge", i)
			}
			if k > 0 && tos[k-1] >= to {
				return fmt.Errorf("pcn: cluster %d targets not strictly increasing", i)
			}
			if ws[k] < 0 || math.IsNaN(ws[k]) || math.IsInf(ws[k], 0) {
				return fmt.Errorf("pcn: edge %d->%d has weight %g, want a finite value ≥ 0", i, to, ws[k])
			}
		}
	}
	return nil
}
