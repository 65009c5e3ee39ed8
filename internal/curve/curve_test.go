package curve

import (
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
	// Hilbert (both constructions), ZigZag and Circle all visit mesh
	// neighbors consecutively, so the total step length is n*m-1.
	sizes := [][2]int{{4, 4}, {8, 8}, {16, 8}, {13, 19}, {16, 12}, {5, 5}, {32, 32}}
	for _, c := range []Curve{Hilbert{}, ZigZag{}, Circle{}} {
		for _, s := range sizes {
			pts := c.Points(s[0], s[1])
			if got, want := TotalStepLength(pts), s[0]*s[1]-1; got != want {
				t.Errorf("%s on %dx%d: total step length %d, want %d", c.Name(), s[0], s[1], got, want)
			}
		}
	}
}

func TestHilbertPow2KnownOrder(t *testing.T) {
	// The 2x2 Hilbert curve visits (0,0),(0,1),(1,1),(1,0) up to the
	// standard orientation; verify the first cell and adjacency instead of
	// pinning an orientation, then pin the full 2x2 order produced by the
	// classical d2xy construction.
	pts := (Hilbert{}).Points(2, 2)
	want := []geom.Point{{X: 0, Y: 0}, {X: 0, Y: 1}, {X: 1, Y: 1}, {X: 1, Y: 0}}
	for i, p := range pts {
		if p != want[i] {
			t.Fatalf("2x2 Hilbert = %v, want %v", pts, want)
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

func TestHilbertSquareMatchesGeneralizedLocality(t *testing.T) {
	// The generalized construction is used for non-power-of-two sizes; it
	// must still be a neighbor-stepping permutation at power-of-two sizes
	// (even though the classical construction takes priority there).
	pts := generalizedHilbert(8, 8)
	if !IsPermutation(pts, 8, 8) {
		t.Fatal("generalized hilbert 8x8 not a permutation")
	}
	if TotalStepLength(pts) != 63 {
		t.Fatalf("generalized hilbert 8x8 step length %d, want 63", TotalStepLength(pts))
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
