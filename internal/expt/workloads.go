// Package expt is the experiment harness behind cmd/experiments and the
// repository's benchmark suite: it materializes the Table 3 workloads,
// registers every evaluated mapping approach, and regenerates the paper's
// tables and figures as text reports.
package expt

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"snnmap/internal/hw"
	"snnmap/internal/obs"
	"snnmap/internal/pcn"
	"snnmap/internal/snn"
)

// Scale selects how much of the Table 3 benchmark suite a sweep covers.
// Larger tiers include everything in smaller ones.
type Scale int

const (
	// ScaleTiny covers the sub-second workloads (unit-test sized).
	ScaleTiny Scale = iota
	// ScaleSmall adds the mid-size workloads up to 4 096 clusters
	// (the default for the benchmark suite).
	ScaleSmall
	// ScaleMedium adds the 65 536-cluster workloads (DNN_268M, CNN_268M)
	// and the large ANN zoo members.
	ScaleMedium
	// ScaleFull adds DNN_4B: 4.3 B neurons on a 1024×1024 mesh (~2.5 GB of
	// working memory).
	ScaleFull
)

// ParseScale converts a flag string into a Scale.
func ParseScale(s string) (Scale, error) {
	switch s {
	case "tiny":
		return ScaleTiny, nil
	case "small":
		return ScaleSmall, nil
	case "medium":
		return ScaleMedium, nil
	case "full":
		return ScaleFull, nil
	}
	return 0, fmt.Errorf("expt: unknown scale %q (tiny|small|medium|full)", s)
}

// PaperRow holds the published Table 3 numbers for one workload, for
// paper-vs-measured reporting.
type PaperRow struct {
	Neurons, Synapses, Clusters, Connections int64
	Mesh                                     string
}

// Workload is one Table 3 benchmark.
type Workload struct {
	// Name is the Table 3 identifier.
	Name string
	// Tier is the smallest Scale that includes this workload.
	Tier Scale
	// Net builds the layer-spec application.
	Net func() *snn.Net
	// Paper is the published row.
	Paper PaperRow

	once sync.Once
	pcn  *pcn.PCN
	mesh hw.Mesh
	err  error
}

// Build expands the workload into its PCN and target mesh (cached per
// process; the PCN is shared, callers must not mutate it).
func (w *Workload) Build() (*pcn.PCN, hw.Mesh, error) {
	w.once.Do(func() {
		p, err := pcn.Expand(w.Net(), pcn.DefaultPartition())
		if err != nil {
			w.err = err
			return
		}
		w.pcn = p
		w.mesh = MeshFor(p.NumClusters)
	})
	return w.pcn, w.mesh, w.err
}

// buildFor resolves a workload's PCN through the cached Build, wrapped in a
// span so partitioning time still shows up on the trace when the build is
// memoized.
func buildFor(w *Workload, opts RunOptions) (*pcn.PCN, hw.Mesh, error) {
	sp := opts.Obs.Span("workload.build:" + w.Name)
	p, mesh, err := w.Build()
	if err != nil {
		sp.End()
		return nil, hw.Mesh{}, err
	}
	sp.End(obs.KV{K: "clusters", V: float64(p.NumClusters)})
	return p, mesh, nil
}

// MeshFor returns the smallest square mesh holding n clusters — the sizing
// rule that reproduces every Table 3 "Target Hardware" column (e.g. 6 956
// clusters → 84×84).
func MeshFor(n int) hw.Mesh {
	side := int(math.Ceil(math.Sqrt(float64(n))))
	if side < 1 {
		side = 1
	}
	return hw.MustMesh(side, side)
}

// workloads lists the 13 benchmarks of Table 3 in the paper's order.
var workloads = []*Workload{
	{Name: "DNN_65K", Tier: ScaleTiny, Net: snn.DNN65K,
		Paper: PaperRow{65536, 805e6, 16, 48, "4x4"}},
	{Name: "DNN_16M", Tier: ScaleSmall, Net: snn.DNN16M,
		Paper: PaperRow{16_700_000, 4e12, 4096, 258048, "64x64"}},
	{Name: "DNN_268M", Tier: ScaleMedium, Net: snn.DNN268M,
		Paper: PaperRow{268_000_000, 70e12, 65536, 4_000_000, "256x256"}},
	{Name: "DNN_4B", Tier: ScaleFull, Net: snn.DNN4B,
		Paper: PaperRow{4_000_000_000, 1125e12, 1_000_000, 67_000_000, "1024x1024"}},
	{Name: "CNN_65K", Tier: ScaleTiny, Net: snn.CNN65K,
		Paper: PaperRow{65536, 2e6, 16, 48, "4x4"}},
	{Name: "CNN_16M", Tier: ScaleSmall, Net: snn.CNN16M,
		Paper: PaperRow{16_700_000, 528e6, 4096, 16384, "64x64"}},
	{Name: "CNN_268M", Tier: ScaleMedium, Net: snn.CNN268M,
		Paper: PaperRow{268_000_000, 8e9, 65536, 262_000, "256x256"}},
	{Name: "LeNet-MNIST", Tier: ScaleTiny, Net: snn.LeNetMNIST,
		Paper: PaperRow{9118, 400_000, 9, 19, "3x3"}},
	{Name: "LeNet-ImageNet", Tier: ScaleSmall, Net: snn.LeNetImageNet,
		Paper: PaperRow{1_000_000, 188e6, 251, 2151, "16x16"}},
	{Name: "AlexNet", Tier: ScaleSmall, Net: snn.AlexNet,
		Paper: PaperRow{900_000, 1e9, 229, 4289, "16x16"}},
	{Name: "MobileNet", Tier: ScaleSmall, Net: snn.MobileNet,
		Paper: PaperRow{6_900_000, 500e6, 1688, 37418, "42x42"}},
	{Name: "InceptionV3", Tier: ScaleMedium, Net: snn.InceptionV3,
		Paper: PaperRow{14_600_000, 5.4e9, 3570, 117597, "60x60"}},
	{Name: "ResNet", Tier: ScaleMedium, Net: snn.ResNet,
		Paper: PaperRow{28_500_000, 11.6e9, 6956, 478602, "84x84"}},
}

// Workloads returns the Table 3 benchmarks included in the scale tier, in
// the paper's order.
func Workloads(scale Scale) []*Workload {
	var out []*Workload
	for _, w := range workloads {
		if w.Tier <= scale {
			out = append(out, w)
		}
	}
	return out
}

// WorkloadByName returns the named Table 3 benchmark.
func WorkloadByName(name string) (*Workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("expt: unknown workload %q", name)
}

// WorkloadNames returns all benchmark names in Table 3 order.
func WorkloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return names
}

// PartitionGraph builds the partitioner benchmark graph: n neurons with
// a heavy nearest-neighbor chain (the locality flat partitioning exploits),
// six mid-range edges per neuron into the i+7..i+47 band (traffic that
// crosses flat cluster boundaries and rewards refinement), and ~10%
// long-range edges (cut weight no local move can remove). No layer tags, so
// both partitioners pack purely by capacity.
func PartitionGraph(n int) *snn.Graph {
	rng := rand.New(rand.NewSource(11))
	var gb snn.GraphBuilder
	gb.AddNeurons(n, -1)
	for i := 0; i < n; i++ {
		gb.AddSynapse(i, (i+1)%n, 8+rng.Float64())
		for k := 0; k < 6; k++ {
			gb.AddSynapse(i, (i+7+rng.Intn(41))%n, 1+rng.Float64())
		}
		if rng.Float64() < 0.10 {
			j := rng.Intn(n)
			if j != i {
				gb.AddSynapse(i, j, 0.5+rng.Float64())
			}
		}
	}
	return gb.Build()
}
