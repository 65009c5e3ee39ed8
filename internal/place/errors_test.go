package place

import (
	"errors"
	"testing"

	"snnmap/internal/hw"
)

func TestNewWrapsErrCapacityExceeded(t *testing.T) {
	_, err := New(10, hw.MustMesh(3, 3))
	if !errors.Is(err, ErrCapacityExceeded) {
		t.Fatalf("overfull New: got %v, want ErrCapacityExceeded", err)
	}
}

func TestMoveWrapsErrUnplaceable(t *testing.T) {
	p, err := New(2, hw.MustMesh(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	p.Assign(0, 0)
	p.Assign(1, 1)
	if err := p.Move(0, 1); !errors.Is(err, ErrUnplaceable) {
		t.Errorf("moving onto an occupied core: got %v, want ErrUnplaceable", err)
	}
	if err := p.Move(0, 2); err != nil {
		t.Fatal(err)
	}
	if p.ClusterAt[0] != None || p.PosOf[0] != 2 {
		t.Fatal("Move did not free the old core")
	}
}

func TestValidateDefectsWrapsErrUnplaceable(t *testing.T) {
	p, err := Sequential(4, hw.MustMesh(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	if err := p.ValidateDefects(nil); err != nil {
		t.Fatalf("nil defect map must validate: %v", err)
	}
	d := hw.NewDefectMap(hw.MustMesh(2, 2))
	d.MarkDead(3)
	if err := p.ValidateDefects(d); !errors.Is(err, ErrUnplaceable) {
		t.Errorf("cluster on dead core: got %v, want ErrUnplaceable", err)
	}
}
