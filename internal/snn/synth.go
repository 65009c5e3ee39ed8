package snn

import "fmt"

// The synthetic benchmark families of Table 3. The paper's DNN_* and CNN_*
// workloads are layered networks sized so that, with CON_npc = 4096 neurons
// per core, the partitioned cluster network has the published shape:
//
//	DNN_65K  =    4 layers ×  4 clusters/layer  (16 clusters,    48 conns)
//	DNN_16M  =   64 layers × 64 clusters/layer  (4 096,      258 048)
//	DNN_268M = 1024 layers × 64 clusters/layer  (65 536,    4.19 M)
//	DNN_4B   = 16384 layers × 64 clusters/layer (1.05 M,   67.1 M)
//
// with adjacent layers fully connected (dense cluster connectivity), and the
// CNN family identical in layer structure but locally connected with a
// 4-cluster window, matching the published connection counts (e.g. CNN_16M:
// 16 384 connections).

// SynthDNN builds a synthetic fully-connected deep network with the given
// number of layers, each containing width neurons. Adjacent layers are fully
// connected (fan-in = width). It builds what it is asked for: Net.Validate,
// run by Expand, rejects a net with no layers or a non-positive width.
func SynthDNN(name string, layers int, width int64) *Net {
	n := &Net{Name: name}
	for i := 0; i < layers; i++ {
		n.Chain(Layer{Name: fmt.Sprintf("l%d", i), Neurons: width}, width, Dense, 0)
	}
	return n
}

// SynthCNN builds a synthetic convolutional network: same layered structure
// as SynthDNN but locally connected. fanIn is the per-neuron synapse count
// (kernel size × channels); window is the cluster-level connectivity width.
// Net.Validate also rejects a non-positive fanIn between two layers.
func SynthCNN(name string, layers int, width, fanIn int64, window int) *Net {
	n := &Net{Name: name}
	for i := 0; i < layers; i++ {
		n.Chain(Layer{Name: fmt.Sprintf("l%d", i), Neurons: width}, fanIn, Local, window)
	}
	return n
}

// neuronsPerCluster is the CON_npc of the paper's target hardware; the
// synthetic family's published shapes assume it.
const neuronsPerCluster = 4096

// DNN65K returns the DNN_65K workload: 65 536 neurons, 16 clusters on 4×4.
func DNN65K() *Net { return SynthDNN("DNN_65K", 4, 4*neuronsPerCluster) }

// DNN16M returns the DNN_16M workload: 16.7 M neurons, 4 096 clusters on 64×64.
func DNN16M() *Net { return SynthDNN("DNN_16M", 64, 64*neuronsPerCluster) }

// DNN268M returns the DNN_268M workload: 268 M neurons, 65 536 clusters on 256×256.
func DNN268M() *Net { return SynthDNN("DNN_268M", 1024, 64*neuronsPerCluster) }

// DNN4B returns the DNN_4B workload: 4.3 B neurons, 1.05 M clusters on 1024×1024.
func DNN4B() *Net { return SynthDNN("DNN_4B", 16384, 64*neuronsPerCluster) }

// CNN65K returns the CNN_65K workload: 65 536 neurons, ~2 M synapses,
// 16 clusters, 48 connections on 4×4.
func CNN65K() *Net { return SynthCNN("CNN_65K", 4, 4*neuronsPerCluster, 41, 4) }

// CNN16M returns the CNN_16M workload: 16.7 M neurons, ~528 M synapses,
// 4 096 clusters, ~16 K connections on 64×64.
func CNN16M() *Net { return SynthCNN("CNN_16M", 64, 64*neuronsPerCluster, 32, 4) }

// CNN268M returns the CNN_268M workload: 268 M neurons, ~8 B synapses,
// 65 536 clusters, ~262 K connections on 256×256.
func CNN268M() *Net { return SynthCNN("CNN_268M", 1024, 64*neuronsPerCluster, 30, 4) }
