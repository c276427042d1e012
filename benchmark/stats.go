package main

import (
	"math"
	"sort"
)

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs, the mean of the two middle values
// for an even count, and NaN for no samples.
func median(xs []float64) float64 {
	_, q2, _ := quartiles(xs)
	return q2
}

// quartiles returns the three cut points that split xs into four groups,
// computed the way Python's statistics.quantiles(xs, n=4) computes them by
// default (the "exclusive" method), so a spread read from this program's
// JSON output with that function matches the one it prints.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	d := sorted(xs)
	n := len(d)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return d[0], d[0], d[0]
	}
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile range of xs as a share of its median — the
// run-to-run noise a bound in BENCHMARK.json is compared against.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	d := sorted(xs)
	rank := int(math.Ceil(p / 100 * float64(len(d))))
	if rank < 1 {
		rank = 1
	}
	return d[rank-1]
}

// tailLadder is the set of percentiles a tail is reported at, highest first.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// tail returns the highest percentile of tailLadder that has at least ten
// samples beyond it, with its value; ok is false when no percentile of the
// ladder does (fewer than 20 samples). A tail with fewer samples beyond it
// would rest on a handful of outliers.
func tail(xs []float64) (pct, value float64, ok bool) {
	n := len(xs)
	for _, p := range tailLadder {
		rank := int(math.Ceil(p / 100 * float64(n)))
		if n-rank >= 10 {
			return p, percentile(xs, p), true
		}
	}
	return 0, math.NaN(), false
}
