package cache

import (
	"encoding/hex"
	"testing"

	"snnmap/internal/curve"
	"snnmap/internal/hw"
	"snnmap/internal/mapping"
	"snnmap/internal/metrics"
	"snnmap/internal/obs"
	"snnmap/internal/pcn"
	"snnmap/internal/snn"
)

// goldenPCN is a fixed tiny cluster graph for key pinning.
func goldenPCN() *pcn.PCN {
	return &pcn.PCN{
		Name:            "golden",
		NumClusters:     3,
		Neurons:         []int32{2, 2, 1},
		Synapses:        []int64{4, 4, 2},
		Layer:           []int32{0, 0, 1},
		OutOff:          []int64{0, 1, 2, 2},
		OutTo:           []int32{1, 2},
		OutW:            []float64{1.5, 2.5},
		InternalTraffic: 3.25,
	}
}

func goldenMappingConfig() mapping.Config {
	return mapping.Config{
		FD:          &mapping.FDConfig{Potential: mapping.L2Sq{}, MaxIterations: 40},
		Constraints: hw.Constraints{NeuronsPerCore: 2, SynapsesPerCore: 8},
	}
}

func pcnKeyOf(p *pcn.PCN) Key {
	h := newHasher("pcn")
	h.pcnContent(p)
	return h.sum()
}

// TestKeyGolden pins the exact key bytes for a fixed input. If this test
// fails, the canonical encoding changed: that is allowed ONLY together
// with a keyVersion bump (which changes every key and makes old cache
// directories cold), never silently. The metrics pin moved with its /2:
// congestion is propagated per target, and a MaxCongestion stamped per edge
// can differ in its last bits.
func TestKeyGolden(t *testing.T) {
	p := goldenPCN()
	cfg := goldenMappingConfig()
	mesh := hw.MustMesh(4, 4)
	pk := pcnKeyOf(p)
	golden := []struct {
		name string
		got  Key
		want string
	}{
		{"pcn", pk, "1da50ce454e248a5a33637ba26f2ed6b01aac5aa5fd8b9c642b59ccdcea14454"},
		{"initial", initialKey(pk, mesh, &cfg), "43acf9ddc94b54b3b0890ec415134b94e119262be54a2730578b2fef35097658"},
		{"result", resultKey(pk, mesh, &cfg), "663bbb10e320e858fc8ba0d7ee53a37849e5f77c558aa0a11a76db6d988ea282"},
		{"partition-net", func() Key {
			cfg := pcn.DefaultPartition()
			return partitionNetKey(snn.LeNetMNIST(), &cfg)
		}(), "b6623d4415d0bb7743d58324dbdd89186f011c5ee56dbb3e422fa7f379c4115a"},
		{"metrics", metricsKey(pk, []int32{0, 1, 2}, mesh, hw.DefaultCostModel(),
			metrics.Options{Congestion: metrics.CongestionExact}), "618ac0e49b974677e56a4bbd463c9f3f6fa19730d34c6fa10a09e81c7cd856b0"},
	}
	for _, g := range golden {
		if got := hex.EncodeToString(g.got[:]); got != g.want {
			t.Errorf("%s key = %s, want %s", g.name, got, g.want)
		}
	}
}

// TestKeyFieldSensitivity is the contract of what is — and is not — part
// of a result key. Fields documented as bit-identity-preserving (Workers,
// Obs, Checkpoint, Cache itself, the PCN/graph Name) must NOT
// change the key; anything that changes the pipeline's output MUST.
func TestKeyFieldSensitivity(t *testing.T) {
	mesh := hw.MustMesh(4, 4)
	baseKey := func() Key {
		p := goldenPCN()
		cfg := goldenMappingConfig()
		return resultKey(pcnKeyOf(p), mesh, &cfg)
	}
	want := baseKey()

	mustNotChange := []struct {
		name   string
		mutate func(p *pcn.PCN, cfg *mapping.Config)
	}{
		{"pcn name", func(p *pcn.PCN, cfg *mapping.Config) { p.Name = "renamed" }},
		{"fd workers", func(p *pcn.PCN, cfg *mapping.Config) { cfg.FD.Workers = 8 }},
		{"fd checkpoint", func(p *pcn.PCN, cfg *mapping.Config) {
			cfg.FD.Checkpoint = &mapping.CheckpointConfig{Interval: 5, Fn: func(*mapping.Snapshot) error { return nil }}
		}},
		{"fd obs", func(p *pcn.PCN, cfg *mapping.Config) {
			cfg.FD.Obs = obs.New(obs.Config{OnProgress: func(obs.Progress) {}})
		}},
		{"pipeline obs", func(p *pcn.PCN, cfg *mapping.Config) {
			cfg.Obs = obs.New(obs.Config{OnProgress: func(obs.Progress) {}})
		}},
		{"explicit hilbert equals nil curve", func(p *pcn.PCN, cfg *mapping.Config) { cfg.Curve = curve.Hilbert{} }},
		{"explicit lambda default", func(p *pcn.PCN, cfg *mapping.Config) { cfg.FD.Lambda = 0.3 }},
	}
	for _, m := range mustNotChange {
		p := goldenPCN()
		cfg := goldenMappingConfig()
		m.mutate(p, &cfg)
		if got := resultKey(pcnKeyOf(p), mesh, &cfg); got != want {
			t.Errorf("%s changed the result key but must not", m.name)
		}
	}

	mustChange := []struct {
		name   string
		mutate func(p *pcn.PCN, cfg *mapping.Config, mesh *hw.Mesh)
	}{
		{"edge weight", func(p *pcn.PCN, cfg *mapping.Config, mesh *hw.Mesh) { p.OutW[0] = 9 }},
		{"cluster sizes", func(p *pcn.PCN, cfg *mapping.Config, mesh *hw.Mesh) { p.Neurons[0] = 3 }},
		{"mesh dims", func(p *pcn.PCN, cfg *mapping.Config, mesh *hw.Mesh) { *mesh = hw.MustMesh(4, 5) }},
		{"curve", func(p *pcn.PCN, cfg *mapping.Config, mesh *hw.Mesh) { cfg.Curve = curve.ZigZag{} }},
		{"potential", func(p *pcn.PCN, cfg *mapping.Config, mesh *hw.Mesh) { cfg.FD.Potential = mapping.L1{} }},
		{"lambda", func(p *pcn.PCN, cfg *mapping.Config, mesh *hw.Mesh) { cfg.FD.Lambda = 0.5 }},
		{"min gain", func(p *pcn.PCN, cfg *mapping.Config, mesh *hw.Mesh) { cfg.FD.MinGain = 1e-3 }},
		{"max iterations", func(p *pcn.PCN, cfg *mapping.Config, mesh *hw.Mesh) { cfg.FD.MaxIterations = 41 }},
		{"polish phase", func(p *pcn.PCN, cfg *mapping.Config, mesh *hw.Mesh) {
			cfg.Polish = &mapping.FDConfig{Potential: mapping.L2Sq{}}
		}},
		{"constraints", func(p *pcn.PCN, cfg *mapping.Config, mesh *hw.Mesh) { cfg.Constraints.NeuronsPerCore = 3 }},
		{"spare rows", func(p *pcn.PCN, cfg *mapping.Config, mesh *hw.Mesh) { cfg.Constraints.SpareRows = 1 }},
		{"defect map", func(p *pcn.PCN, cfg *mapping.Config, mesh *hw.Mesh) {
			d := hw.NewDefectMap(*mesh)
			d.MarkDead(3)
			cfg.Defects = d
		}},
	}
	for _, m := range mustChange {
		p := goldenPCN()
		cfg := goldenMappingConfig()
		meshCopy := mesh
		m.mutate(p, &cfg, &meshCopy)
		if got := resultKey(pcnKeyOf(p), meshCopy, &cfg); got == want {
			t.Errorf("%s did not change the result key but must", m.name)
		}
	}

	// Two defect maps with the same content must produce the same key
	// even though they are distinct objects.
	d1, d2 := hw.NewDefectMap(mesh), hw.NewDefectMap(mesh)
	d1.MarkDead(3)
	d2.MarkDead(3)
	p := goldenPCN()
	cfg1, cfg2 := goldenMappingConfig(), goldenMappingConfig()
	cfg1.Defects, cfg2.Defects = d1, d2
	if resultKey(pcnKeyOf(p), mesh, &cfg1) != resultKey(pcnKeyOf(p), mesh, &cfg2) {
		t.Error("identical defect maps hashed to different keys")
	}
}
