package geom

import (
	"testing"
	"testing/quick"
)

func TestPointArithmetic(t *testing.T) {
	p := Point{3, -2}
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

func TestDirString(t *testing.T) {
	want := map[Dir]string{Up: "up", Down: "down", Right: "right", Left: "left"}
	for d, s := range want {
		if d.String() != s {
			t.Errorf("Dir(%d).String() = %q, want %q", d, d.String(), s)
		}
	}
}

func TestAbs(t *testing.T) {
	if Abs(-5) != 5 || Abs(5) != 5 || Abs(0) != 0 {
		t.Error("Abs broken")
	}
}
