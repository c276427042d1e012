package main

import (
	"math"
	"testing"
)

func TestQuartilesMatchPython(t *testing.T) {
	// Expected values from Python's statistics.quantiles(xs, n=4).
	cases := []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{7}, 7, 7, 7},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{5, 1.5, 9.25, 2}, 1.625, 3.5, 8.1875},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 3, 4.5},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.xs)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
		if m := median(c.xs); m != c.q2 {
			t.Errorf("median(%v) = %v, want %v", c.xs, m, c.q2)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of no samples should be NaN")
	}
}

func TestSpread(t *testing.T) {
	if got := spread([]float64{1, 2, 3, 4, 5}); got != 1 {
		t.Errorf("spread = %v, want (4.5-1.5)/3 = 1", got)
	}
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	cases := []struct {
		n     int
		pct   float64
		value float64
		ok    bool
	}{
		{19, 0, 0, false},
		{20, 50, 10, true},
		{40, 75, 30, true},
		{100, 90, 90, true},
		{150, 90, 135, true}, // p95 would leave only 7 beyond
		{1000, 99, 990, true},
	}
	for _, c := range cases {
		pct, v, ok := tail(seq(c.n))
		if ok != c.ok || (ok && (pct != c.pct || v != c.value)) {
			t.Errorf("tail(n=%d) = p%v %v %v, want p%v %v %v", c.n, pct, v, ok, c.pct, c.value, c.ok)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for p, want := range map[float64]float64{20: 1, 50: 3, 90: 5, 100: 5} {
		if got := percentile(xs, p); got != want {
			t.Errorf("percentile(%v) = %v, want %v", p, got, want)
		}
	}
}

func TestMeasuredSeedRepeatsEveryFourth(t *testing.T) {
	seen := map[int64]int{}
	for i := 0; i < 12; i++ {
		s := measuredSeed(7, i)
		if i%4 == 3 {
			if s != measuredSeed(7, i-2) {
				t.Errorf("submission %d does not repeat submission %d", i, i-2)
			}
			continue
		}
		if j, dup := seen[s]; dup {
			t.Errorf("submissions %d and %d share a graph", j, i)
		}
		seen[s] = i
	}
	if measuredSeed(7, 0) == warmupSeed(7, 0) || measuredSeed(7, 0) == measuredSeed(8, 0) {
		t.Error("graph seeds collide across runs or with warm-up jobs")
	}
}
