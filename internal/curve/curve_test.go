package curve

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"snnmap/internal/geom"
)

func allCurves() []Curve { return []Curve{Hilbert{}, ZigZag{}, Circle{}, Random{Seed: 7}} }

func TestPermutationProperty(t *testing.T) {
	sizes := [][2]int{
		{1, 1}, {1, 7}, {7, 1}, {2, 2}, {3, 3}, {4, 4}, {8, 8}, {16, 16},
		{16, 8}, {13, 19}, {16, 12}, {5, 9}, {31, 17}, {64, 64}, {84, 84},
	}
	for _, c := range allCurves() {
		for _, s := range sizes {
			pts := c.Points(s[0], s[1])
			if !IsPermutation(pts, s[0], s[1]) {
				t.Errorf("%s on %dx%d: not a permutation", c.Name(), s[0], s[1])
			}
		}
	}
}

func TestPermutationQuick(t *testing.T) {
	for _, c := range allCurves() {
		c := c
		f := func(n, m uint8) bool {
			rows := int(n%40) + 1
			cols := int(m%40) + 1
			return IsPermutation(c.Points(rows, cols), rows, cols)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
			t.Errorf("%s: %v", c.Name(), err)
		}
	}
}

func TestConsecutiveAdjacency(t *testing.T) {
	// Hilbert, ZigZag and Circle all visit mesh neighbors consecutively, so the total step length is n*m-1.
	sizes := [][2]int{{4, 4}, {8, 8}, {16, 8}, {13, 19}, {16, 12}, {5, 5}, {32, 32}}
	for _, c := range []Curve{Hilbert{}, ZigZag{}, Circle{}} {
		for _, s := range sizes {
			pts := c.Points(s[0], s[1])
			got := 0
			for i := 1; i < len(pts); i++ {
				got += geom.Manhattan(pts[i-1], pts[i])
			}
			if want := s[0]*s[1] - 1; got != want {
				t.Errorf("%s on %dx%d: total step length %d, want %d", c.Name(), s[0], s[1], got, want)
			}
		}
	}
}

func TestHilbertPow2KnownOrder(t *testing.T) {
	// The 2x2 Hilbert curve starts along the rows: (0,0),(0,1),(1,1),(1,0),
	// the order of the classical curve (TestHilbertIsClassicalOnPowerOfTwoSquares
	// holds the larger squares).
	pts := (Hilbert{}).Points(2, 2)
	want := []geom.Point{{X: 0, Y: 0}, {X: 0, Y: 1}, {X: 1, Y: 1}, {X: 1, Y: 0}}
	for i, p := range pts {
		if p != want[i] {
			t.Fatalf("2x2 Hilbert = %v, want %v", pts, want)
		}
	}
}

// hilbertD2XY is the classical discrete Hilbert curve on an n×n mesh, n a
// power of two: the standard bit-twiddling conversion of a distance d along
// the curve to mesh coordinates. It is the oracle for Hilbert on those
// squares.
func hilbertD2XY(n, d int) (x, y int) {
	t := d
	for s := 1; s < n; s *= 2 {
		rx := 1 & (t / 2)
		ry := 1 & (t ^ rx)
		// Rotate the quadrant.
		if ry == 0 {
			if rx == 1 {
				x = s - 1 - x
				y = s - 1 - y
			}
			x, y = y, x
		}
		x += s * rx
		y += s * ry
		t /= 4
	}
	return x, y
}

// TestHilbertIsClassicalOnPowerOfTwoSquares holds the generalized
// construction, started along the rows, to the classical d2xy order on every
// power-of-two square up to 2048², which covers DNN_4B's 1024² mesh.
func TestHilbertIsClassicalOnPowerOfTwoSquares(t *testing.T) {
	for n := 1; n <= 2048; n *= 2 {
		for d, p := range (Hilbert{}).Points(n, n) {
			if x, y := hilbertD2XY(n, d); p != (geom.Point{X: x, Y: y}) {
				t.Fatalf("%dx%d: step %d visits %v, classical curve (%d,%d)", n, n, d, p, x, y)
			}
		}
	}
}

// TestHilbertOrientationPinned pins the visit order on the shapes that are
// not power-of-two squares, including the 72×72 and 290×256 benchmark meshes:
// FNV-1a over each step's (row, col) as two little-endian uint32s. The
// orientation rule (along the longer side, the columns on a square) decides
// these sums.
func TestHilbertOrientationPinned(t *testing.T) {
	for _, c := range []struct {
		n, m int
		sum  uint64
	}{
		{72, 72, 0x872d5185592626a5},
		{84, 84, 0x791fec7467cb2fe5},
		{290, 256, 0xe376f5c95804893d},
		{13, 19, 0xceec1b9e76d2d76a},
		{16, 12, 0x5a31447d7b48ba25},
		{8, 16, 0x9bee88c6102d6f25},
		{16, 8, 0xd607fea85a236825},
	} {
		h := fnv.New64a()
		var b [8]byte
		for _, p := range (Hilbert{}).Points(c.n, c.m) {
			binary.LittleEndian.PutUint32(b[:4], uint32(p.X))
			binary.LittleEndian.PutUint32(b[4:], uint32(p.Y))
			h.Write(b[:])
		}
		if got := h.Sum64(); got != c.sum {
			t.Errorf("%dx%d: order checksum %#x, want %#x", c.n, c.m, got, c.sum)
		}
	}
}

func TestHilbertLocalityBeatsZigZag(t *testing.T) {
	// The core §4.2.2 claim: for sequence indices at moderate distance, the
	// Hilbert curve keeps 2D distances smaller than ZigZag on average.
	// ZigZag is perfectly periodic at gaps that are exact row multiples, so
	// the comparison aggregates over a band of gaps (as an SNN's mixed
	// connection lengths do).
	const n = 32
	h := (Hilbert{}).Points(n, n)
	z := (ZigZag{}).Points(n, n)
	var hSum, zSum int
	for gap := 1; gap <= 100; gap++ {
		for i := 0; i+gap < n*n; i++ {
			hSum += geom.Manhattan(h[i], h[i+gap])
			zSum += geom.Manhattan(z[i], z[i+gap])
		}
	}
	if hSum > zSum {
		t.Errorf("aggregated over gaps 1..100: hilbert total distance %d > zigzag %d", hSum, zSum)
	}
}

func TestZigZagOrder(t *testing.T) {
	pts := (ZigZag{}).Points(2, 3)
	want := []geom.Point{{X: 0, Y: 0}, {X: 0, Y: 1}, {X: 0, Y: 2}, {X: 1, Y: 2}, {X: 1, Y: 1}, {X: 1, Y: 0}}
	for i, p := range pts {
		if p != want[i] {
			t.Fatalf("zigzag 2x3 = %v, want %v", pts, want)
		}
	}
}

func TestCircleOrder(t *testing.T) {
	pts := (Circle{}).Points(3, 3)
	want := []geom.Point{
		{X: 0, Y: 0}, {X: 0, Y: 1}, {X: 0, Y: 2},
		{X: 1, Y: 2}, {X: 2, Y: 2}, {X: 2, Y: 1},
		{X: 2, Y: 0}, {X: 1, Y: 0}, {X: 1, Y: 1},
	}
	for i, p := range pts {
		if p != want[i] {
			t.Fatalf("circle 3x3 = %v, want %v", pts, want)
		}
	}
}

func TestCircleEndsNearCenter(t *testing.T) {
	pts := (Circle{}).Points(9, 9)
	last := pts[len(pts)-1]
	center := geom.Point{X: 4, Y: 4}
	if geom.Manhattan(last, center) > 1 {
		t.Errorf("circle should spiral to the center, ended at %v", last)
	}
}

// TestRandomOrderSeeded pins the random order to its seed: one seed always
// gives the same order and the same name, and different seeds give different
// orders and names (the name is the order's cache identity).
func TestRandomOrderSeeded(t *testing.T) {
	a, b := (Random{Seed: 42}).Points(5, 5), (Random{Seed: 42}).Points(5, 5)
	if !slices.Equal(a, b) {
		t.Error("same seed must give the same order")
	}
	if name := (Random{Seed: 42}).Name(); name != "random/42" {
		t.Errorf("name %q, want random/42", name)
	}
	for _, seed := range []int64{1, 2, 43} {
		if slices.Equal(a, (Random{Seed: seed}).Points(5, 5)) {
			t.Errorf("seeds 42 and %d give the same order", seed)
		}
		if (Random{Seed: seed}).Name() == (Random{Seed: 42}).Name() {
			t.Errorf("seeds 42 and %d share a name", seed)
		}
	}
}

// TestRandomOrderIsPermOfCells pins the order to its definition: step i
// visits row-major cell Perm(n·m)[i] of a generator seeded with Seed.
func TestRandomOrderIsPermOfCells(t *testing.T) {
	n, m := 7, 5
	perm := rand.New(rand.NewSource(3)).Perm(n * m)
	for i, pt := range (Random{Seed: 3}).Points(n, m) {
		if got := pt.X*m + pt.Y; got != perm[i] {
			t.Fatalf("step %d visits cell %d, want %d", i, got, perm[i])
		}
	}
}

func TestInvalidMeshPanics(t *testing.T) {
	for _, c := range allCurves() {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic on 0x5 mesh", c.Name())
				}
			}()
			c.Points(0, 5)
		}()
	}
}

func TestIsPermutationRejects(t *testing.T) {
	good := (ZigZag{}).Points(3, 3)
	if !IsPermutation(good, 3, 3) {
		t.Fatal("valid permutation rejected")
	}
	dup := append([]geom.Point(nil), good...)
	dup[4] = dup[3]
	if IsPermutation(dup, 3, 3) {
		t.Error("duplicate accepted")
	}
	oob := append([]geom.Point(nil), good...)
	oob[0] = geom.Point{X: 3, Y: 0}
	if IsPermutation(oob, 3, 3) {
		t.Error("out-of-bounds accepted")
	}
	if IsPermutation(good[:8], 3, 3) {
		t.Error("short slice accepted")
	}
}
