// Package snn models SNN applications (§3.2) in two complementary forms:
//
//   - Graph: the explicit neuron/synapse directed graph G_SNN = (V_S, E_S,
//     w_S). Edge weights are spike densities (communication traffic), not
//     synaptic strengths. Suitable for small applications and for exercising
//     the paper's Algorithm 1 partitioner at full fidelity.
//
//   - Net: a layer-level specification (layer sizes, fan-ins, connection
//     patterns) that describes the same applications without materializing
//     neurons, scaling to the paper's 4-billion-neuron workloads. The model
//     zoo (synthetic DNN/CNN families and the ANN-derived networks of
//     Table 3) is expressed as Nets.
package snn

import (
	"fmt"
	"math"
	"sort"
)

// Graph is an explicit SNN application graph in CSR (compressed sparse row)
// form, indexed by neuron. Neurons are identified by dense indices
// 0..NumNeurons-1; their index order is the order Algorithm 1 walks them,
// which for layered networks is layer-major.
type Graph struct {
	// NumNeurons is |V_S|.
	NumNeurons int
	// OutOff/OutTo/OutW store outgoing synapses per neuron: the synapses of
	// neuron i are OutTo[OutOff[i]:OutOff[i+1]] with spike densities
	// OutW[...]. OutTo is sorted within each neuron's range.
	OutOff []int64
	OutTo  []int32
	OutW   []float64
	// FanIn[i] is the number of incoming synapses of neuron i; it drives
	// the CON_spc constraint during partitioning.
	FanIn []int32
	// Layer optionally tags each neuron with a layer index (layer-by-layer
	// baselines use it). Nil when unknown.
	Layer []int32
}

// NumSynapses returns |E_S|.
func (g *Graph) NumSynapses() int64 {
	if len(g.OutOff) == 0 {
		return 0
	}
	return g.OutOff[g.NumNeurons]
}

// OutEdges returns the targets and weights of neuron i's outgoing synapses.
// The returned slices alias the graph's storage and must not be modified.
func (g *Graph) OutEdges(i int) ([]int32, []float64) {
	lo, hi := g.OutOff[i], g.OutOff[i+1]
	return g.OutTo[lo:hi], g.OutW[lo:hi]
}

// Validate checks structural invariants: offsets monotone, targets in range,
// fan-in consistent with edges, weights finite and non-negative.
func (g *Graph) Validate() error {
	if g.NumNeurons < 0 {
		return fmt.Errorf("snn: negative neuron count %d", g.NumNeurons)
	}
	if len(g.OutOff) != g.NumNeurons+1 {
		return fmt.Errorf("snn: OutOff length %d, want %d", len(g.OutOff), g.NumNeurons+1)
	}
	if len(g.FanIn) != g.NumNeurons {
		return fmt.Errorf("snn: FanIn length %d, want %d", len(g.FanIn), g.NumNeurons)
	}
	if g.Layer != nil && len(g.Layer) != g.NumNeurons {
		return fmt.Errorf("snn: Layer length %d, want %d", len(g.Layer), g.NumNeurons)
	}
	fanIn := make([]int32, g.NumNeurons)
	for i := 0; i < g.NumNeurons; i++ {
		if g.OutOff[i] > g.OutOff[i+1] {
			return fmt.Errorf("snn: OutOff not monotone at neuron %d", i)
		}
		tos, ws := g.OutEdges(i)
		for k, to := range tos {
			if to < 0 || int(to) >= g.NumNeurons {
				return fmt.Errorf("snn: neuron %d has out-of-range synapse target %d", i, to)
			}
			if w := ws[k]; !(w >= 0 && w <= math.MaxFloat64) {
				return fmt.Errorf("snn: spike density %g on synapse %d->%d, want a finite value ≥ 0", w, i, to)
			}
			fanIn[to]++
		}
	}
	for i, want := range fanIn {
		if g.FanIn[i] != want {
			return fmt.Errorf("snn: FanIn[%d]=%d inconsistent with edges (want %d)", i, g.FanIn[i], want)
		}
	}
	return nil
}

// GraphBuilder accumulates neurons and synapses and produces a CSR Graph.
// The zero value is ready to use.
type GraphBuilder struct {
	layers   []int32
	hasLayer bool
	from, to []int32
	w        []float64
}

// AddNeuron appends a neuron and returns its index. layer tags the neuron's
// layer; pass -1 when unknown.
func (b *GraphBuilder) AddNeuron(layer int) int {
	id := len(b.layers)
	b.layers = append(b.layers, int32(layer))
	if layer >= 0 {
		b.hasLayer = true
	}
	return id
}

// AddNeurons appends n neurons tagged with the given layer and returns the
// index of the first.
func (b *GraphBuilder) AddNeurons(n, layer int) int {
	first := len(b.layers)
	for i := 0; i < n; i++ {
		b.AddNeuron(layer)
	}
	return first
}

// AddSynapse appends a directed synapse with the given spike density
// (w_S). Both endpoints must already exist; Validate checks the density.
func (b *GraphBuilder) AddSynapse(from, to int, density float64) {
	if from < 0 || from >= len(b.layers) || to < 0 || to >= len(b.layers) {
		panic(fmt.Sprintf("snn: synapse %d->%d references unknown neuron (have %d)", from, to, len(b.layers)))
	}
	b.from = append(b.from, int32(from))
	b.to = append(b.to, int32(to))
	b.w = append(b.w, density)
}

// NumNeurons returns the number of neurons added so far.
func (b *GraphBuilder) NumNeurons() int { return len(b.layers) }

// Build produces the CSR graph. The builder can be reused afterwards; Build
// does not share storage with it.
func (b *GraphBuilder) Build() *Graph {
	n := len(b.layers)
	g := &Graph{
		NumNeurons: n,
		OutOff:     make([]int64, n+1),
		OutTo:      make([]int32, len(b.to)),
		OutW:       make([]float64, len(b.w)),
		FanIn:      make([]int32, n),
	}
	if b.hasLayer {
		g.Layer = make([]int32, n)
		copy(g.Layer, b.layers)
	}
	// Counting sort of edges by source.
	counts := make([]int64, n+1)
	for _, f := range b.from {
		counts[f+1]++
	}
	for i := 0; i < n; i++ {
		counts[i+1] += counts[i]
	}
	copy(g.OutOff, counts)
	next := make([]int64, n)
	copy(next, counts[:n])
	for k, f := range b.from {
		pos := next[f]
		next[f]++
		g.OutTo[pos] = b.to[k]
		g.OutW[pos] = b.w[k]
		g.FanIn[b.to[k]]++
	}
	// Sort each neuron's targets for deterministic iteration.
	for i := 0; i < n; i++ {
		lo, hi := g.OutOff[i], g.OutOff[i+1]
		sortEdgeRange(g.OutTo[lo:hi], g.OutW[lo:hi])
	}
	return g
}

func sortEdgeRange(to []int32, w []float64) {
	if len(to) < 2 {
		return
	}
	idx := make([]int, len(to))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return to[idx[a]] < to[idx[b]] })
	t2 := make([]int32, len(to))
	w2 := make([]float64, len(w))
	for i, j := range idx {
		t2[i] = to[j]
		w2[i] = w[j]
	}
	copy(to, t2)
	copy(w, w2)
}
