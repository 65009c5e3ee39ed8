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
