package hw

import (
	"bytes"
	"strings"
	"testing"

	"snnmap/internal/geom"
)

func TestDefectMapBasics(t *testing.T) {
	mesh := MustMesh(4, 4)
	d := NewDefectMap(mesh)
	if d.NumDead() != 0 || d.NumDegraded() != 0 || d.NumFailedLinks() != 0 {
		t.Fatalf("fresh map not healthy: %d/%d/%d", d.NumDead(), d.NumDegraded(), d.NumFailedLinks())
	}
	d.MarkDead(5)
	d.MarkDead(5) // idempotent
	if d.NumDead() != 1 || !d.IsDead(5) || d.IsDead(6) {
		t.Fatalf("MarkDead accounting wrong: numDead=%d", d.NumDead())
	}
	if d.HealthyCores() != 15 {
		t.Fatalf("HealthyCores = %d, want 15", d.HealthyCores())
	}
	if err := d.Degrade(3, 0.5); err != nil {
		t.Fatal(err)
	}
	if d.NumDegraded() != 1 || d.CapScale(3) != 0.5 || d.CapScale(4) != 1 {
		t.Fatalf("Degrade accounting wrong: %d degraded, scale=%g", d.NumDegraded(), d.CapScale(3))
	}
	if err := d.Degrade(3, 1); err != nil || d.NumDegraded() != 0 {
		t.Fatalf("restoring capacity should undegrade: err=%v degraded=%d", err, d.NumDegraded())
	}
	if err := d.Degrade(3, 0); err == nil {
		t.Fatal("Degrade(0) should fail")
	}
}

func TestDefectMapNilReceivers(t *testing.T) {
	var d *DefectMap
	if d.IsDead(0) || d.CapScale(0) != 1 || d.LinkDownDir(0, geom.Right) {
		t.Fatal("nil DefectMap must read as fully healthy")
	}
	if d.NumDead() != 0 || d.NumDegraded() != 0 || d.NumFailedLinks() != 0 {
		t.Fatal("nil DefectMap counters must be zero")
	}
	if d.Clone() != nil {
		t.Fatal("nil Clone must stay nil")
	}
}

func TestFailLink(t *testing.T) {
	mesh := MustMesh(3, 3)
	d := NewDefectMap(mesh)
	if err := d.FailLink(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := d.FailLink(1, 0); err != nil { // order-insensitive, idempotent
		t.Fatal(err)
	}
	if d.NumFailedLinks() != 1 {
		t.Fatalf("NumFailedLinks = %d, want 1", d.NumFailedLinks())
	}
	if !d.LinkDownDir(0, geom.Right) || !d.LinkDownDir(1, geom.Left) {
		t.Fatal("link 0-1 must be down from both ends")
	}
	if d.LinkDownDir(0, geom.Down) || d.LinkDownDir(1, geom.Right) {
		t.Fatal("unrelated links must stay up")
	}
	if err := d.FailLink(3, 6); err != nil { // vertical
		t.Fatal(err)
	}
	if !d.LinkDownDir(3, geom.Down) || !d.LinkDownDir(6, geom.Up) {
		t.Fatal("link 3-6 must be down from both ends")
	}
	if err := d.FailLink(0, 2); err == nil {
		t.Fatal("FailLink on non-neighbors must error")
	}
	if err := d.FailLink(2, 3); err == nil {
		t.Fatal("FailLink across a row wrap must error")
	}
}

func TestInjectorsDeterministic(t *testing.T) {
	mesh := MustMesh(8, 8)
	a := InjectUniform(mesh, 0.2, 0.1, 42)
	b := InjectUniform(mesh, 0.2, 0.1, 42)
	for idx := 0; idx < mesh.Cores(); idx++ {
		if a.IsDead(idx) != b.IsDead(idx) {
			t.Fatalf("InjectUniform not deterministic at core %d", idx)
		}
	}
	if a.NumFailedLinks() != b.NumFailedLinks() {
		t.Fatal("InjectUniform link count not deterministic")
	}
	c := InjectUniform(mesh, 0.2, 0.1, 43)
	same := true
	for idx := 0; idx < mesh.Cores(); idx++ {
		if a.IsDead(idx) != c.IsDead(idx) {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical dead sets")
	}
}

// TestInjectUniformNesting checks the documented guarantee that growing
// deadFrac under the same seed produces nested dead-core sets — the
// monotone-degradation experiments rely on it.
func TestInjectUniformNesting(t *testing.T) {
	mesh := MustMesh(10, 10)
	prev := InjectUniform(mesh, 0, 0, 7)
	for _, frac := range []float64{0.05, 0.1, 0.2, 0.4} {
		next := InjectUniform(mesh, frac, 0, 7)
		for idx := 0; idx < mesh.Cores(); idx++ {
			if prev.IsDead(idx) && !next.IsDead(idx) {
				t.Fatalf("dead sets not nested: core %d dead at smaller frac but alive at %g", idx, frac)
			}
		}
		if next.NumDead() < prev.NumDead() {
			t.Fatalf("dead count decreased: %d -> %d at %g", prev.NumDead(), next.NumDead(), frac)
		}
		prev = next
	}
}

func TestInjectClusteredBudget(t *testing.T) {
	mesh := MustMesh(12, 12)
	d := InjectClustered(mesh, 0.15, 3, 9)
	want := int(0.15*float64(mesh.Cores()) + 0.5)
	if d.NumDead() != want {
		t.Fatalf("clustered dead count = %d, want %d", d.NumDead(), want)
	}
}

func TestInjectLines(t *testing.T) {
	mesh := MustMesh(6, 5)
	d := InjectLines(mesh, 1, 1, 3)
	// One full row (5) + one full column (6) minus their crossing.
	if d.NumDead() != 5+6-1 {
		t.Fatalf("lines dead count = %d, want %d", d.NumDead(), 5+6-1)
	}
}

func TestDefectMapJSONRoundTrip(t *testing.T) {
	mesh := MustMesh(5, 4)
	d := NewDefectMap(mesh)
	d.MarkDead(7)
	d.MarkDead(13)
	if err := d.Degrade(2, 0.25); err != nil {
		t.Fatal(err)
	}
	if err := d.FailLink(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := d.FailLink(4, 8); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteDefectMap(&buf, d); err != nil {
		t.Fatal(err)
	}
	got, err := ReadDefectMap(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Mesh() != mesh {
		t.Fatalf("mesh round-trip: got %v want %v", got.Mesh(), mesh)
	}
	if got.NumDead() != 2 || !got.IsDead(7) || !got.IsDead(13) {
		t.Fatalf("dead cores lost in round-trip: %d", got.NumDead())
	}
	if got.CapScale(2) != 0.25 || got.NumDegraded() != 1 {
		t.Fatalf("degraded core lost: scale=%g", got.CapScale(2))
	}
	if got.NumFailedLinks() != 2 || !got.LinkDownDir(0, geom.Right) || !got.LinkDownDir(4, geom.Down) {
		t.Fatalf("links lost: %d", got.NumFailedLinks())
	}
}

func TestReadDefectMapRejectsBadInput(t *testing.T) {
	for _, bad := range []string{
		`{`,
		`{"rows":0,"cols":4}`,
		`{"rows":2,"cols":2,"dead":[99]}`,
		`{"rows":2,"cols":2,"degraded":[{"core":0,"scale":0}]}`,
		`{"rows":2,"cols":2,"links":[[0,3]]}`,
	} {
		if _, err := ReadDefectMap(strings.NewReader(bad)); err == nil {
			t.Errorf("ReadDefectMap(%q) should fail", bad)
		}
	}
}

func TestParseDefectSpec(t *testing.T) {
	mesh := MustMesh(10, 10)
	for _, tc := range []struct {
		spec string
		dead int
	}{
		{"none", 0},
		{"", 0},
		{"uniform:dead=0.1,links=0.05,seed=3", 10},
		{"uniform:dead=0.1", 10}, // seed defaults to 1
		{"clustered:dead=0.2,blobs=2,seed=5", 20},
		{"lines:rows=1,seed=2", 10},
	} {
		d, err := ParseDefectSpec(mesh, tc.spec)
		if err != nil {
			t.Fatalf("ParseDefectSpec(%q): %v", tc.spec, err)
		}
		if d.NumDead() != tc.dead {
			t.Errorf("ParseDefectSpec(%q): %d dead, want %d", tc.spec, d.NumDead(), tc.dead)
		}
	}
	// Spec parsing must be deterministic given the seed.
	a, _ := ParseDefectSpec(mesh, "uniform:dead=0.1,seed=4")
	b, _ := ParseDefectSpec(mesh, "uniform:dead=0.1,seed=4")
	for idx := 0; idx < mesh.Cores(); idx++ {
		if a.IsDead(idx) != b.IsDead(idx) {
			t.Fatal("spec injection not deterministic")
		}
	}
	for _, bad := range []string{
		"nope:dead=0.1",
		"uniform:dead=-0.1",
		"uniform:dead",
		"uniform:dead=0.1,typo=3",
		"uniform:seed=x",
	} {
		if _, err := ParseDefectSpec(mesh, bad); err == nil {
			t.Errorf("ParseDefectSpec(%q) should fail", bad)
		}
	}
}

// TestParseDefectSpecRejectsBadValues: fractions must be finite and in
// [0, 1] and line counts non-negative, or the injectors would slice a
// permutation with a negative length. Each error names the bad key.
func TestParseDefectSpecRejectsBadValues(t *testing.T) {
	mesh := MustMesh(8, 8)
	for _, tc := range []struct{ spec, key string }{
		{"uniform:dead=NaN", "dead"},
		{"uniform:dead=Inf", "dead"},
		{"uniform:dead=1.5", "dead"},
		{"uniform:links=Inf", "links"},
		{"uniform:links=-Inf", "links"},
		{"uniform:links=NaN", "links"},
		{"clustered:dead=NaN", "dead"},
		{"clustered:dead=2", "dead"},
		{"lines:rows=-1", "rows"},
		{"lines:cols=-3", "cols"},
	} {
		_, err := ParseDefectSpec(mesh, tc.spec)
		if err == nil {
			t.Errorf("ParseDefectSpec(%q) accepted", tc.spec)
			continue
		}
		if !strings.Contains(err.Error(), tc.key+"=") {
			t.Errorf("ParseDefectSpec(%q): error %q does not name %s", tc.spec, err, tc.key)
		}
	}
	for _, ok := range []string{"uniform:dead=0,links=1", "uniform:dead=1", "lines:rows=0,cols=0"} {
		if _, err := ParseDefectSpec(mesh, ok); err != nil {
			t.Errorf("ParseDefectSpec(%q): %v", ok, err)
		}
	}
}

// FuzzParseDefectSpec: no spec string panics, and an accepted map never
// counts more dead cores than the mesh has.
func FuzzParseDefectSpec(f *testing.F) {
	for _, seed := range []string{
		"none", "uniform:dead=0.05,links=0.02,seed=7", "clustered:dead=0.1,blobs=3",
		"lines:rows=1,cols=2", "uniform:dead=NaN", "uniform:links=Inf",
		"lines:rows=-1", "clustered:dead=NaN", "clustered:blobs=-4,dead=1",
	} {
		f.Add(seed)
	}
	mesh := MustMesh(6, 7)
	f.Fuzz(func(t *testing.T, spec string) {
		d, err := ParseDefectSpec(mesh, spec)
		if err != nil {
			return
		}
		if d.NumDead() > mesh.Cores() {
			t.Fatalf("ParseDefectSpec(%q): %d dead cores on a %d-core mesh", spec, d.NumDead(), mesh.Cores())
		}
	})
}

func TestConstraintsScale(t *testing.T) {
	c := Constraints{NeuronsPerCore: 1000, SynapsesPerCore: 0}
	s := c.Scale(0.5)
	if s.NeuronsPerCore != 500 {
		t.Fatalf("scaled NeuronsPerCore = %d, want 500", s.NeuronsPerCore)
	}
	if s.SynapsesPerCore != 0 {
		t.Fatal("unconstrained dimension must stay unconstrained")
	}
	if c.Scale(1) != c || c.Scale(2) != c {
		t.Fatal("scale >= 1 must be identity")
	}
	// A constrained capacity that floors to nothing must not flip to the
	// zero (= unconstrained) reading: it becomes impossible instead.
	tiny := Constraints{NeuronsPerCore: 1}.Scale(0.5)
	if tiny.FitsNeurons(1) {
		t.Fatal("fully-degraded constrained capacity must fit nothing")
	}
}

func TestCloneIsDeep(t *testing.T) {
	mesh := MustMesh(3, 3)
	d := NewDefectMap(mesh)
	d.MarkDead(0)
	if err := d.Degrade(1, 0.5); err != nil {
		t.Fatal(err)
	}
	if err := d.FailLink(0, 1); err != nil {
		t.Fatal(err)
	}
	q := d.Clone()
	q.MarkDead(2)
	if err := q.Degrade(1, 0.1); err != nil {
		t.Fatal(err)
	}
	if err := q.FailLink(1, 2); err != nil {
		t.Fatal(err)
	}
	if d.IsDead(2) || d.CapScale(1) != 0.5 || d.NumFailedLinks() != 1 {
		t.Fatal("Clone shares state with the original")
	}
}
