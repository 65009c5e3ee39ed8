package hw

import (
	"testing"
	"testing/quick"

	"snnmap/internal/geom"
)

func TestNewMesh(t *testing.T) {
	m, err := NewMesh(3, 5)
	if err != nil {
		t.Fatal(err)
	}
	if m.Cores() != 15 || m.String() != "3x5" {
		t.Errorf("mesh = %v, cores = %d", m, m.Cores())
	}
	for _, bad := range [][2]int{{0, 5}, {5, 0}, {-1, 3}} {
		if _, err := NewMesh(bad[0], bad[1]); err == nil {
			t.Errorf("NewMesh(%d,%d) should fail", bad[0], bad[1])
		}
	}
}

func TestMustMeshPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustMesh(0, 0)
}

func TestMeshIndexCoordRoundTrip(t *testing.T) {
	f := func(rows, cols uint8, idx uint16) bool {
		m := MustMesh(int(rows%50)+1, int(cols%50)+1)
		i := int(idx) % m.Cores()
		p := m.Coord(i)
		return m.Contains(p) && m.Index(p) == i
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMeshContains(t *testing.T) {
	m := MustMesh(4, 6)
	if !m.Contains(geom.Point{X: 0, Y: 0}) || !m.Contains(geom.Point{X: 3, Y: 5}) {
		t.Error("corners must be contained")
	}
	for _, p := range []geom.Point{{X: 4, Y: 0}, {X: 0, Y: 6}, {X: -1, Y: 2}, {X: 2, Y: -1}} {
		if m.Contains(p) {
			t.Errorf("%v should be outside", p)
		}
	}
}

func TestConstraints(t *testing.T) {
	c := Constraints{NeuronsPerCore: 10, SynapsesPerCore: 100}
	if !c.FitsNeurons(10) || c.FitsNeurons(11) {
		t.Error("neuron constraint broken")
	}
	if !c.FitsSynapses(100) || c.FitsSynapses(101) {
		t.Error("synapse constraint broken")
	}
	unconstrained := Constraints{}
	if !unconstrained.FitsNeurons(1<<40) || !unconstrained.FitsSynapses(1<<40) {
		t.Error("zero limits must mean unconstrained")
	}
}

func TestCostModelTable2(t *testing.T) {
	c := DefaultCostModel()
	// Table 2: EN_r=1, EN_w=0.1, L_r=1, L_w=0.01.
	if c.RouterEnergy != 1 || c.WireEnergy != 0.1 || c.RouterLatency != 1 || c.WireLatency != 0.01 {
		t.Fatalf("Table 2 defaults wrong: %+v", c)
	}
	// A spike crossing d links visits d+1 routers and d wires (Eq. 9-10).
	if got := c.SpikeEnergy(0); got != 1 {
		t.Errorf("SpikeEnergy(0) = %g, want 1", got)
	}
	if got := c.SpikeEnergy(3); got != 4+0.3 {
		t.Errorf("SpikeEnergy(3) = %g, want 4.3", got)
	}
	if got := c.SpikeLatency(3); got != 4+0.03 {
		t.Errorf("SpikeLatency(3) = %g, want 4.03", got)
	}
}

func TestDefaultConstraintsTable2(t *testing.T) {
	c := DefaultConstraints()
	if c.NeuronsPerCore != 4096 || c.SynapsesPerCore != 65536 {
		t.Fatalf("Table 2 constraints wrong: %+v", c)
	}
}

func TestMeshFor(t *testing.T) {
	if m := MeshFor(0); m != MustMesh(1, 1) {
		t.Errorf("MeshFor(0) = %v, want 1x1", m)
	}
	for n := 1; n <= 5000; n++ {
		m := MeshFor(n)
		if m.Rows != m.Cols || m.Cores() < n || (m.Rows-1)*(m.Rows-1) >= n {
			t.Fatalf("MeshFor(%d) = %v: not the smallest square holding %d", n, m, n)
		}
	}
}

func TestPlatformsTable1(t *testing.T) {
	ps := Platforms()
	if len(ps) != 5 {
		t.Fatalf("want 5 platforms, got %d", len(ps))
	}
	// Spot-check the published system capacities of Table 1.
	checks := map[string]struct {
		neurons, synapses int64
	}{
		// SpiNNaker: 1 B neurons, 200 B synapses? Table 1 reports 1B/200B
		// via 18 cores × 1 M chips × 1000 neurons.
		"SpiNNaker": {18_000_000_000 / 18, 2 * 1024 * 18_000_000},
		"TrueNorth": {64_000_000, 0},
		"Loihi":     {100_663_296, 0},
	}
	for name := range checks {
		p, ok := PlatformByName(name)
		if !ok {
			t.Fatalf("missing platform %s", name)
		}
		switch name {
		case "SpiNNaker":
			if p.MaxNeurons() != 1_000_000*18*1000 {
				t.Errorf("SpiNNaker neurons = %d", p.MaxNeurons())
			}
		case "TrueNorth":
			// 4096 cores/chip × 64 chips × 256 neurons = 67.1 M (the paper
			// rounds to 64 M).
			if p.MaxNeurons() != 4096*64*256 {
				t.Errorf("TrueNorth neurons = %d", p.MaxNeurons())
			}
		case "Loihi":
			if p.MaxNeurons() != 1024*768*128 {
				t.Errorf("Loihi neurons = %d", p.MaxNeurons())
			}
		}
		if p.Constraints().NeuronsPerCore != p.NeuronsPerCore {
			t.Errorf("%s constraints mismatch", name)
		}
	}
	if _, ok := PlatformByName("missing"); ok {
		t.Error("unknown platform lookup must fail")
	}
	for i := 1; i < len(ps); i++ {
		if ps[i-1].Name >= ps[i].Name {
			t.Error("Platforms() must be sorted by name")
		}
	}
}

func TestUsableRows(t *testing.T) {
	m := MustMesh(8, 6)
	for _, tc := range []struct {
		spare, want int
	}{
		{0, 8},
		{-3, 8}, // negative reads as no reservation
		{2, 6},
		{7, 1},
		{8, 0},  // reserving everything leaves nothing
		{20, 0}, // over-reservation clamps, never negative
	} {
		if got := (Constraints{SpareRows: tc.spare}).UsableRows(m); got != tc.want {
			t.Errorf("SpareRows=%d: UsableRows = %d, want %d", tc.spare, got, tc.want)
		}
	}
}

func TestScalePreservesSpareRows(t *testing.T) {
	c := Constraints{NeuronsPerCore: 100, SynapsesPerCore: 1000, SpareRows: 3}
	s := c.Scale(0.5)
	if s.SpareRows != 3 {
		t.Errorf("Scale dropped SpareRows: %+v", s)
	}
	if s.NeuronsPerCore != 50 || s.SynapsesPerCore != 500 {
		t.Errorf("Scale(0.5) = %+v", s)
	}
}
