package mapping

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// randomQueue builds a queue of n entries with unique ids and deliberately
// colliding tension values (small integer range), so the id tie-break is
// exercised heavily.
func randomQueue(rng *rand.Rand, n int) []pairTension {
	ids := rng.Perm(4 * n)
	q := make([]pairTension, n)
	for i := range q {
		q[i] = pairTension{id: int32(ids[i]), tension: float64(rng.Intn(7))}
	}
	return q
}

// TestSelectTopMatchesSort is the property pinning the partial selection:
// for any queue and any m, selectTop's prefix must equal the prefix of a
// full sort, entry for entry.
func TestSelectTopMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		n := rng.Intn(400)
		q := randomQueue(rng, n)
		want := slices.Clone(q)
		slices.SortFunc(want, queueCmp)
		m := 0
		if n > 0 {
			m = rng.Intn(n + 2) // occasionally m == n or m > n
		}
		got := slices.Clone(q)
		selectTop(got, m)
		bound := min(m, n)
		if !slices.Equal(got[:bound], want[:bound]) {
			t.Fatalf("trial %d (n=%d m=%d): selected prefix differs from sorted prefix", trial, n, m)
		}
		// The tail's order is unspecified, but its contents must be the
		// complement of the prefix.
		tail := slices.Clone(got[bound:])
		slices.SortFunc(tail, queueCmp)
		if !slices.Equal(tail, want[bound:]) {
			t.Fatalf("trial %d (n=%d m=%d): tail contents differ from sorted complement", trial, n, m)
		}
	}
}

// TestSelectTopAdversarial drives the depth-bound fallback with patterns
// quickselect pivots handle worst: sorted, reverse-sorted, and
// all-equal-tension inputs at sizes around the insertion cutoff.
func TestSelectTopAdversarial(t *testing.T) {
	for _, n := range []int{0, 1, 2, 12, 13, 64, 257, 1024} {
		for _, q := range adversarialQueues(n) {
			want := slices.Clone(q)
			slices.SortFunc(want, queueCmp)
			for _, m := range []int{0, 1, n / 3, n - 1, n} {
				if m < 0 || m > n {
					continue
				}
				got := slices.Clone(q)
				selectTop(got, m)
				if !slices.Equal(got[:m], want[:m]) {
					t.Fatalf("n=%d m=%d: prefix differs", n, m)
				}
			}
		}
	}
}

// adversarialQueues are n-entry queues quicksort pivots handle worst:
// sorted, reverse-sorted, and all-equal tensions with distinct ids.
func adversarialQueues(n int) [][]pairTension {
	var qs [][]pairTension
	for _, build := range []func(i int) pairTension{
		func(i int) pairTension { return pairTension{id: int32(i), tension: float64(i)} },
		func(i int) pairTension { return pairTension{id: int32(i), tension: float64(-i)} },
		func(i int) pairTension { return pairTension{id: int32(i), tension: 1} },
	} {
		q := make([]pairTension, n)
		for i := range q {
			q[i] = build(i)
		}
		qs = append(qs, q)
	}
	return qs
}

// requireSorted asserts sortDepth at the given depth budget (negative: the
// full budget sortQueue grants) orders q exactly as slices.SortFunc does.
func requireSorted(t testing.TB, name string, q []pairTension, depth int) {
	t.Helper()
	want := slices.Clone(q)
	slices.SortFunc(want, queueCmp)
	got := slices.Clone(q)
	if depth < 0 {
		sortQueue(got)
	} else {
		sortDepth(got, depth)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("%s (n=%d depth=%d): sortQueue order differs from slices.SortFunc", name, len(q), depth)
	}
}

// TestSortQueueMatchesSortFunc holds the concrete-typed quicksort to
// slices.SortFunc under queueCmp: seeded random queues with colliding
// tensions at every size up to past the insertion cutoff and at larger
// ones, the adversarial patterns, and small depth budgets that send the
// recursion into the slices.SortFunc fallback.
func TestSortQueueMatchesSortFunc(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for n := 0; n <= 40; n++ {
		requireSorted(t, "random", randomQueue(rng, n), -1)
	}
	for _, n := range []int{0, 1, 2, 12, 13, 64, 257, 1000, 1024} {
		for trial := 0; trial < 5; trial++ {
			q := randomQueue(rng, n)
			requireSorted(t, "random", q, -1)
			for depth := 0; depth < 3; depth++ {
				requireSorted(t, "depth fallback", q, depth)
			}
		}
		for _, q := range adversarialQueues(n) {
			requireSorted(t, "adversarial", q, -1)
			requireSorted(t, "adversarial depth fallback", q, 1)
		}
	}
}

// FuzzSortQueue feeds arbitrary tensions — small colliding values, ±0 and
// ±Inf — under a seeded id permutation and an arbitrary depth budget to
// sortQueue and sortDepth, against slices.SortFunc.
func FuzzSortQueue(f *testing.F) {
	f.Add([]byte{3, 1, 2}, int64(1), uint8(0))
	f.Add([]byte("the quick brown fox jumps over the lazy dog"), int64(7), uint8(2))
	f.Add(make([]byte, 40), int64(3), uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, seed int64, depth uint8) {
		ids := rand.New(rand.NewSource(seed)).Perm(4*len(data) + 1)
		q := make([]pairTension, len(data))
		for i, b := range data {
			tension := float64(int8(b)) / 4
			switch b {
			case 0x80:
				tension = math.Copysign(0, -1)
			case 0x7f:
				tension = math.Inf(1)
			case 0x81:
				tension = math.Inf(-1)
			}
			q[i] = pairTension{id: int32(ids[i]), tension: tension}
		}
		requireSorted(t, "fuzz", q, -1)
		requireSorted(t, "fuzz", q, int(depth%8))
	})
}

// TestSwapLimitMatchesLoopFormula pins swapLimit to the historical in-loop
// computation ⌈λ·n⌉ clamped below by 1, for every λ the config accepts.
func TestSwapLimitMatchesLoopFormula(t *testing.T) {
	for _, lambda := range []float64{0.05, 0.3, 0.5, 1} {
		for n := 1; n < 50; n++ {
			got := swapLimit(lambda, n)
			want := int(math.Ceil(lambda * float64(n)))
			if want < 1 {
				want = 1
			}
			if got != want {
				t.Fatalf("swapLimit(%g, %d) = %d, want %d", lambda, n, got, want)
			}
			if prefix := swapLimit(lambda, n); prefix > n {
				t.Fatalf("swapLimit(%g, %d) = %d exceeds n", lambda, n, prefix)
			}
		}
	}
	if swapLimit(0.3, 0) != 0 {
		t.Fatal("swapLimit of an empty queue must be 0")
	}
}
