package curve

import (
	"testing"

	"snnmap/internal/geom"
)

// meshesUnderTest covers the shapes each At/Index fast path dispatches on:
// pow2 squares (bit-twiddled Hilbert), non-pow2 squares and rectangles
// (iterative gilbert, both orientations), and the degenerate thin shapes.
var meshesUnderTest = [][2]int{
	{1, 1}, {1, 2}, {2, 1}, {1, 9}, {9, 1}, {2, 2}, {2, 3}, {3, 2},
	{3, 3}, {4, 4}, {5, 5}, {3, 7}, {7, 3}, {5, 12}, {12, 5},
	{8, 8}, {16, 16}, {6, 17}, {17, 6}, {13, 19}, {32, 32}, {20, 30},
}

// TestAtIndexMatchPoints pins every curve's At/Index fast path to the
// materialized visit order, which stays the equivalence oracle (for Hilbert,
// the retained recursive construction).
func TestAtIndexMatchPoints(t *testing.T) {
	for _, c := range allCurves() {
		name := c.Name()
		for _, nm := range meshesUnderTest {
			n, m := nm[0], nm[1]
			pts := c.Points(n, m)
			for d, want := range pts {
				if got := c.At(n, m, d); got != want {
					t.Fatalf("curve %q %dx%d: At(%d) = %v, Points[%d] = %v", name, n, m, d, got, d, want)
				}
				if got := c.Index(n, m, want); got != d {
					t.Fatalf("curve %q %dx%d: Index(%v) = %d, want %d", name, n, m, want, got, d)
				}
			}
		}
	}
}

// TestHilbertPow2FastPathMatchesGilbert checks the two Hilbert
// implementations agree where their domains are forced apart: the
// bit-twiddled pow2 square order must equal what Points returns, and the
// gilbert descent must agree with the recursive walk on the same shape
// (already covered above) — here we additionally pin the classical inverse.
func TestHilbertPow2FastPathMatchesGilbert(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8, 16, 64} {
		for d := 0; d < n*n; d++ {
			x, y := hilbertD2XY(n, d)
			if got := hilbertXY2D(n, x, y); got != d {
				t.Fatalf("hilbertXY2D(%d, %d, %d) = %d, want %d", n, x, y, got, d)
			}
		}
	}
}

func TestAtPanicsOutOfRange(t *testing.T) {
	for _, fn := range []func(){
		func() { Hilbert{}.At(4, 4, -1) },
		func() { Hilbert{}.At(4, 4, 16) },
		func() { ZigZag{}.Index(4, 4, geom.Point{X: 4, Y: 0}) },
		func() { Circle{}.Index(4, 4, geom.Point{X: 0, Y: -1}) },
		func() { Hilbert{}.At(0, 4, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic for out-of-range At/Index")
				}
			}()
			fn()
		}()
	}
}

// TestSharedMemoizes checks Shared returns the identical backing slice on a
// repeat call and keeps distinct entries per curve and mesh.
func TestSharedMemoizes(t *testing.T) {
	a := Shared(Hilbert{}, 16, 16)
	b := Shared(Hilbert{}, 16, 16)
	if &a[0] != &b[0] {
		t.Fatal("Shared recomputed a cached order")
	}
	z := Shared(ZigZag{}, 16, 16)
	if &a[0] == &z[0] {
		t.Fatal("Shared conflated curves with the same mesh")
	}
	if !IsPermutation(a, 16, 16) || !IsPermutation(z, 16, 16) {
		t.Fatal("Shared returned a non-permutation order")
	}
	c := Shared(Hilbert{}, 4, 9)
	if len(c) != 36 {
		t.Fatalf("Shared(4, 9) returned %d points, want 36", len(c))
	}
}
