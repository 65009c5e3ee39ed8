package main

import (
	"math"
	"sort"
)

// sample summarises the repetitions of one timing: the median, the
// quartiles, and how many values they rest on. With fewer than 21 values no
// tail percentile has ten samples beyond it, so none is reported.
type sample struct {
	Median, Q1, Q3 float64
	N              int
}

// iqrFrac is the distance between the quartiles as a share of the median,
// the spread the acceptance driver computes over its runs.
func (s sample) iqrFrac() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / math.Abs(s.Median)
}

// summarise returns the median and quartiles of vals. The quartiles follow
// the exclusive method of Python's statistics.quantiles(vals, n=4), so a
// spread computed here equals the one the driver computes from the same
// values.
func summarise(vals []float64) sample {
	n := len(vals)
	if n == 0 {
		return sample{}
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if n == 1 {
		return sample{Median: s[0], Q1: s[0], Q3: s[0], N: 1}
	}
	return sample{Median: quantile(s, 2), Q1: quantile(s, 1), Q3: quantile(s, 3), N: n}
}

// quantile returns the i-th quartile cut point of sorted (len >= 2).
func quantile(sorted []float64, i int) float64 {
	n := len(sorted)
	j := i * (n + 1) / 4
	if j < 1 {
		j = 1
	}
	if j > n-1 {
		j = n - 1
	}
	delta := i*(n+1) - j*4
	return (sorted[j-1]*float64(4-delta) + sorted[j]*float64(delta)) / 4
}

// worsening returns by what share of base the value got worse: positive
// when a lower-is-better value rose or a higher-is-better value fell.
func worsening(base, value float64, higherBetter bool) float64 {
	if base == 0 {
		if value == 0 {
			return 0
		}
		return math.Inf(1)
	}
	w := (value - base) / math.Abs(base)
	if higherBetter {
		w = -w
	}
	return w
}

// relDiff is |a-b| over the larger magnitude (0 when both are 0).
func relDiff(a, b float64) float64 {
	m := math.Max(math.Abs(a), math.Abs(b))
	if m == 0 {
		return 0
	}
	return math.Abs(a-b) / m
}
