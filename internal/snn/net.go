package snn

import (
	"fmt"
	"math"
)

// Pattern describes how the clusters of two layers connect once the layers
// are partitioned. Patterns operate at cluster granularity so that very
// large networks never materialize individual synapses.
type Pattern uint8

const (
	// Dense connects every cluster of the source layer to every cluster of
	// the target layer (fully-connected layers; convolutions partitioned
	// along channel planes behave the same way).
	Dense Pattern = iota
	// Local connects each target cluster to a window of source clusters
	// centered at the proportionally corresponding position (spatially
	// local connectivity such as the synthetic CNN family).
	Local
	// OneToOne connects target cluster j to the proportionally
	// corresponding source cluster only (residual/identity shortcuts,
	// pooling over channel planes).
	OneToOne
)

// String implements fmt.Stringer.
func (p Pattern) String() string {
	switch p {
	case Dense:
		return "dense"
	case Local:
		return "local"
	case OneToOne:
		return "one-to-one"
	}
	return fmt.Sprintf("Pattern(%d)", uint8(p))
}

// Layer describes one layer of a Net.
type Layer struct {
	// Name identifies the layer in diagnostics ("conv1", "fc6", ...).
	Name string
	// Neurons is the number of neurons in the layer.
	Neurons int64
	// Rate is the average spike density per synapse feeding out of this
	// layer (the w_S of §3.2). Zero means 1.
	Rate float64
}

// Conn describes a connection between two layers of a Net.
type Conn struct {
	// From and To index Net.Layers. Connections are directed From -> To.
	From, To int
	// FanIn is the number of synapses each target-layer neuron receives
	// through this connection (e.g. k²·C_in for a convolution).
	FanIn int64
	// Pattern selects the cluster-level connectivity.
	Pattern Pattern
	// Window is the number of source clusters each target cluster reaches
	// under the Local pattern (ignored otherwise; 0 means 1).
	Window int
}

// Net is a layer-level SNN application description. It is the scalable
// counterpart of Graph: partitioning a Net yields the same PCN a neuron
// walk would, without instantiating neurons.
type Net struct {
	// Name identifies the application ("DNN_4B", "ResNet", ...).
	Name   string
	Layers []Layer
	Conns  []Conn
}

// NumNeurons returns the total neuron count |V_S|.
func (n *Net) NumNeurons() int64 {
	var total int64
	for _, l := range n.Layers {
		total += l.Neurons
	}
	return total
}

// NumSynapses returns the total synapse count |E_S| implied by the
// connection fan-ins.
func (n *Net) NumSynapses() int64 {
	var total int64
	for _, c := range n.Conns {
		total += n.Layers[c.To].Neurons * c.FanIn
	}
	return total
}

// Validate checks the structural sanity of the specification.
func (n *Net) Validate() error {
	if len(n.Layers) == 0 {
		return fmt.Errorf("snn: net %q has no layers", n.Name)
	}
	for i, l := range n.Layers {
		if l.Neurons <= 0 {
			return fmt.Errorf("snn: net %q layer %d (%s) has %d neurons", n.Name, i, l.Name, l.Neurons)
		}
		if l.Rate < 0 || math.IsNaN(l.Rate) || math.IsInf(l.Rate, 0) {
			return fmt.Errorf("snn: net %q layer %d (%s) has rate %g, want a finite value ≥ 0", n.Name, i, l.Name, l.Rate)
		}
	}
	for i, c := range n.Conns {
		if c.From < 0 || c.From >= len(n.Layers) || c.To < 0 || c.To >= len(n.Layers) {
			return fmt.Errorf("snn: net %q conn %d references layer out of range", n.Name, i)
		}
		if c.From == c.To {
			return fmt.Errorf("snn: net %q conn %d is a self-loop on layer %d", n.Name, i, c.From)
		}
		if c.FanIn <= 0 {
			return fmt.Errorf("snn: net %q conn %d has fan-in %d", n.Name, i, c.FanIn)
		}
		if c.Pattern == Local && c.Window < 0 {
			return fmt.Errorf("snn: net %q conn %d has negative window", n.Name, i)
		}
	}
	return nil
}

// RateOf returns the effective spike density of layer i (1 when unset).
func (n *Net) RateOf(i int) float64 {
	if r := n.Layers[i].Rate; r > 0 {
		return r
	}
	return 1
}

// Chain appends a layer connected to the previous last layer and returns its
// index. It is a convenience for building feed-forward specs.
func (n *Net) Chain(l Layer, fanIn int64, p Pattern, window int) int {
	idx := len(n.Layers)
	n.Layers = append(n.Layers, l)
	if idx > 0 {
		n.Conns = append(n.Conns, Conn{From: idx - 1, To: idx, FanIn: fanIn, Pattern: p, Window: window})
	}
	return idx
}

// Connect appends an explicit connection between two existing layers.
func (n *Net) Connect(from, to int, fanIn int64, p Pattern, window int) {
	n.Conns = append(n.Conns, Conn{From: from, To: to, FanIn: fanIn, Pattern: p, Window: window})
}

// Materialize expands the Net into an explicit neuron Graph. Neuron spike
// densities come from the source layer's Rate. Intended for small networks
// (tests, the NoC simulator, Figure 6 connection images); it refuses to
// expand networks with more than maxSynapses synapses to avoid accidental
// multi-gigabyte allocations.
func (n *Net) Materialize(maxSynapses int64) (*Graph, error) {
	if err := n.Validate(); err != nil {
		return nil, err
	}
	if s := n.NumSynapses(); s > maxSynapses {
		return nil, fmt.Errorf("snn: net %q has %d synapses, above materialization cap %d", n.Name, s, maxSynapses)
	}
	var b GraphBuilder
	first := make([]int, len(n.Layers))
	for i, l := range n.Layers {
		first[i] = b.AddNeurons(int(l.Neurons), i)
	}
	for _, c := range n.Conns {
		src, dst := n.Layers[c.From], n.Layers[c.To]
		rate := n.RateOf(c.From)
		fanIn := int(c.FanIn)
		if int64(fanIn) > src.Neurons {
			fanIn = int(src.Neurons)
		}
		for t := 0; t < int(dst.Neurons); t++ {
			// Each target neuron draws fanIn synapses from a contiguous
			// window of source neurons centered at the proportional
			// position, wrapping at the edges; for Dense fan-in equal to
			// the source size this is exact full connectivity.
			center := 0
			if dst.Neurons > 1 {
				center = int(int64(t) * (src.Neurons - 1) / (dst.Neurons - 1))
			}
			start := center - fanIn/2
			if start < 0 {
				start = 0
			}
			if start+fanIn > int(src.Neurons) {
				start = int(src.Neurons) - fanIn
			}
			for k := 0; k < fanIn; k++ {
				b.AddSynapse(first[c.From]+start+k, first[c.To]+t, rate)
			}
		}
	}
	return b.Build(), nil
}
