package place

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"snnmap/internal/geom"
	"snnmap/internal/hw"
)

func TestNewRejectsOverfull(t *testing.T) {
	if _, err := New(10, hw.MustMesh(3, 3)); err == nil {
		t.Error("10 clusters on 9 cores must fail")
	}
}

func TestAssignAndLookup(t *testing.T) {
	p, err := New(2, hw.MustMesh(2, 3))
	if err != nil {
		t.Fatal(err)
	}
	p.Assign(0, 4) // (1,1)
	p.Assign(1, 0) // (0,0)
	if p.Of(0) != (geom.Point{X: 1, Y: 1}) {
		t.Errorf("Of(0) = %v", p.Of(0))
	}
	if p.ClusterAt[0] != 1 || p.ClusterAt[1] != None {
		t.Errorf("ClusterAt[0:2] = %v, want [1 None]", p.ClusterAt[:2])
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestAssignRejectsConflicts(t *testing.T) {
	p, _ := New(2, hw.MustMesh(2, 2))
	if err := p.Assign(0, 0); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		c    int
		idx  int32
	}{
		{"cluster already placed", 0, 1},
		{"core already taken", 1, 0},
	} {
		if err := p.Assign(c.c, c.idx); !errors.Is(err, ErrBadConfig) {
			t.Errorf("%s: got %v, want ErrBadConfig", c.name, err)
		}
	}
	if p.PosOf[0] != 0 || p.PosOf[1] != None || p.ClusterAt[0] != 0 || p.ClusterAt[1] != None {
		t.Errorf("a rejected Assign changed the placement: PosOf %v, ClusterAt %v", p.PosOf, p.ClusterAt)
	}
}

func TestSwapCores(t *testing.T) {
	p, _ := New(2, hw.MustMesh(2, 2))
	p.Assign(0, 0)
	p.Assign(1, 3)
	p.SwapCores(0, 3)
	if p.PosOf[0] != 3 || p.PosOf[1] != 0 {
		t.Errorf("after swap: %v", p.PosOf)
	}
	// Swap with an empty core is a move.
	p.SwapCores(3, 2)
	if p.PosOf[0] != 2 || p.ClusterAt[3] != None {
		t.Errorf("move failed: %v %v", p.PosOf, p.ClusterAt)
	}
	// Swap of two empty cores is a no-op.
	p.SwapCores(1, 3)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateCatchesHoles(t *testing.T) {
	p, _ := New(2, hw.MustMesh(2, 2))
	p.Assign(0, 0)
	if p.Validate() == nil {
		t.Error("unplaced cluster must fail validation")
	}
	p.Assign(1, 1)
	p.ClusterAt[1] = None // corrupt
	if p.Validate() == nil {
		t.Error("inconsistent directions must fail validation")
	}
}

func TestSequential(t *testing.T) {
	p, err := Sequential(5, hw.MustMesh(2, 3))
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	for c := 0; c < 5; c++ {
		if p.PosOf[c] != int32(c) {
			t.Errorf("cluster %d at %d", c, p.PosOf[c])
		}
	}
}

func TestRandomValidProperty(t *testing.T) {
	f := func(seed int64, n uint8, extra uint8) bool {
		clusters := int(n%40) + 1
		side := 1
		for side*side < clusters {
			side++
		}
		mesh := hw.MustMesh(side, side+int(extra%3))
		p, err := Random(clusters, mesh, rand.New(rand.NewSource(seed)))
		if err != nil {
			return false
		}
		return p.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestRandomDeterminism(t *testing.T) {
	mesh := hw.MustMesh(4, 4)
	a, _ := Random(10, mesh, rand.New(rand.NewSource(3)))
	b, _ := Random(10, mesh, rand.New(rand.NewSource(3)))
	for i := range a.PosOf {
		if a.PosOf[i] != b.PosOf[i] {
			t.Fatal("same seed must give the same placement")
		}
	}
}

func TestClone(t *testing.T) {
	p, _ := Sequential(3, hw.MustMesh(2, 2))
	q := p.Clone()
	q.SwapCores(0, 3)
	if p.PosOf[0] != 0 {
		t.Error("clone must not share storage")
	}
	if q.Validate() != nil || p.Validate() != nil {
		t.Error("both placements must stay valid")
	}
}
