package curve

import "testing"

// FuzzCurveCoverage asserts the core contract of every curve: on
// any W×H rectangle the visit order is a permutation of the cells — each cell
// exactly once, none out of bounds. The seeds cover the degenerate single-row
// and single-column shapes where recursive subdivision is easiest to get
// wrong.
func FuzzCurveCoverage(f *testing.F) {
	f.Add(1, 1)
	f.Add(1, 7)
	f.Add(7, 1)
	f.Add(1, 64)
	f.Add(64, 1)
	f.Add(2, 2)
	f.Add(3, 5)
	f.Add(8, 8)
	f.Add(13, 19)
	f.Add(16, 12)
	f.Fuzz(func(t *testing.T, n, m int) {
		if n < 1 || m < 1 || n > 64 || m > 64 {
			t.Skip()
		}
		for _, c := range allCurves() {
			name := c.Name()
			pts := c.Points(n, m)
			if !IsPermutation(pts, n, m) {
				t.Errorf("curve %q on %dx%d: visit order is not a permutation of the cells", name, n, m)
			}
		}
	})
}

// FuzzCurveIndex asserts the direct-arithmetic fast path of every
// curve against its materialized walk on arbitrary W×H rectangles: At must
// reproduce Points (for Hilbert, the retained recursive construction is the
// oracle) and Index must invert At — the round-trip both ways.
func FuzzCurveIndex(f *testing.F) {
	f.Add(1, 1)
	f.Add(1, 7)
	f.Add(7, 1)
	f.Add(2, 2)
	f.Add(3, 5)
	f.Add(8, 8)
	f.Add(16, 16)
	f.Add(13, 19)
	f.Add(16, 12)
	f.Add(5, 37)
	f.Add(37, 5)
	f.Fuzz(func(t *testing.T, n, m int) {
		if n < 1 || m < 1 || n > 64 || m > 64 {
			t.Skip()
		}
		for _, c := range allCurves() {
			name := c.Name()
			pts := c.Points(n, m)
			for d, want := range pts {
				got := c.At(n, m, d)
				if got != want {
					t.Fatalf("curve %q on %dx%d: At(%d) = %v, recursive walk gives %v", name, n, m, d, got, want)
				}
				if back := c.Index(n, m, got); back != d {
					t.Fatalf("curve %q on %dx%d: Index(At(%d)) = %d, round-trip broken", name, n, m, d, back)
				}
			}
		}
	})
}
