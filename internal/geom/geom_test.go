package geom

import (
	"testing"
	"testing/quick"
)

func TestPointArithmetic(t *testing.T) {
	p := Point{3, -2}
	q := Point{-1, 5}
	if got := p.Add(q); got != (Point{2, 3}) {
		t.Errorf("Add = %v, want (2,3)", got)
	}
	if got := p.Sub(q); got != (Point{4, -7}) {
		t.Errorf("Sub = %v, want (4,-7)", got)
	}
	if got := p.L1(); got != 5 {
		t.Errorf("L1 = %d, want 5", got)
	}
	if got := p.L2Sq(); got != 13 {
		t.Errorf("L2Sq = %d, want 13", got)
	}
	if got := p.String(); got != "(3,-2)" {
		t.Errorf("String = %q", got)
	}
}

func TestManhattan(t *testing.T) {
	cases := []struct {
		p, q Point
		want int
	}{
		{Point{0, 0}, Point{0, 0}, 0},
		{Point{0, 0}, Point{3, 4}, 7},
		{Point{5, 5}, Point{2, 9}, 7},
		{Point{-1, -1}, Point{1, 1}, 4},
	}
	for _, c := range cases {
		if got := Manhattan(c.p, c.q); got != c.want {
			t.Errorf("Manhattan(%v,%v) = %d, want %d", c.p, c.q, got, c.want)
		}
	}
}

func TestManhattanProperties(t *testing.T) {
	clamp := func(v int) int { return v % 1000 }
	symmetric := func(ax, ay, bx, by int) bool {
		a := Point{clamp(ax), clamp(ay)}
		b := Point{clamp(bx), clamp(by)}
		return Manhattan(a, b) == Manhattan(b, a)
	}
	if err := quick.Check(symmetric, nil); err != nil {
		t.Errorf("symmetry: %v", err)
	}
	triangle := func(ax, ay, bx, by, cx, cy int) bool {
		a := Point{clamp(ax), clamp(ay)}
		b := Point{clamp(bx), clamp(by)}
		c := Point{clamp(cx), clamp(cy)}
		return Manhattan(a, c) <= Manhattan(a, b)+Manhattan(b, c)
	}
	if err := quick.Check(triangle, nil); err != nil {
		t.Errorf("triangle inequality: %v", err)
	}
	nonneg := func(ax, ay, bx, by int) bool {
		a := Point{clamp(ax), clamp(ay)}
		b := Point{clamp(bx), clamp(by)}
		d := Manhattan(a, b)
		return d >= 0 && (d == 0) == (a == b)
	}
	if err := quick.Check(nonneg, nil); err != nil {
		t.Errorf("identity of indiscernibles: %v", err)
	}
}

func TestDirDeltaOppositeRoundTrip(t *testing.T) {
	for d := Dir(0); d < NumDirs; d++ {
		if d.Opposite().Opposite() != d {
			t.Errorf("%v: double opposite is not identity", d)
		}
		sum := d.Delta().Add(d.Opposite().Delta())
		if sum != (Point{0, 0}) {
			t.Errorf("%v: delta + opposite delta = %v, want origin", d, sum)
		}
		if d.Delta().L1() != 1 {
			t.Errorf("%v: delta %v is not a unit step", d, d.Delta())
		}
	}
}

func TestDirString(t *testing.T) {
	want := map[Dir]string{Up: "up", Down: "down", Right: "right", Left: "left"}
	for d, s := range want {
		if d.String() != s {
			t.Errorf("Dir(%d).String() = %q, want %q", d, d.String(), s)
		}
	}
}

func TestRect(t *testing.T) {
	r := RectFromSize(3, 5)
	if r.Height() != 3 || r.Width() != 5 || r.Area() != 15 {
		t.Fatalf("RectFromSize(3,5) = %+v", r)
	}
	if !r.Contains(Point{0, 0}) || !r.Contains(Point{2, 4}) {
		t.Error("rect should contain its corners")
	}
	if r.Contains(Point{3, 0}) || r.Contains(Point{0, 5}) || r.Contains(Point{-1, 0}) {
		t.Error("rect should exclude outside points")
	}
}

func TestBounding(t *testing.T) {
	r := Bounding(Point{4, 1}, Point{2, 7})
	want := Rect{MinX: 2, MinY: 1, MaxX: 5, MaxY: 8}
	if r != want {
		t.Fatalf("Bounding = %+v, want %+v", r, want)
	}
	if !r.Contains(Point{4, 1}) || !r.Contains(Point{2, 7}) {
		t.Error("bounding rect must contain both points")
	}
	// Degenerate: same point.
	r = Bounding(Point{3, 3}, Point{3, 3})
	if r.Area() != 1 || !r.Contains(Point{3, 3}) {
		t.Errorf("degenerate bounding = %+v", r)
	}
}

func TestBoundingContainsProperty(t *testing.T) {
	f := func(ax, ay, bx, by int) bool {
		a := Point{ax % 100, ay % 100}
		b := Point{bx % 100, by % 100}
		r := Bounding(a, b)
		return r.Contains(a) && r.Contains(b) &&
			r.Area() == (Abs(a.X-b.X)+1)*(Abs(a.Y-b.Y)+1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAbs(t *testing.T) {
	if Abs(-5) != 5 || Abs(5) != 5 || Abs(0) != 0 {
		t.Error("Abs broken")
	}
}
