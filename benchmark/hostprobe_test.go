package main

import "testing"

func TestScaledConvertsOnlyTimesAndRates(t *testing.T) {
	const factor = 0.8 // a host 25% slower than the reference
	cases := []struct {
		unit      string
		v, scaled float64
	}{
		{"s", 2, 1.6},
		{"1/s", 4, 5},
		{"Q", 0.5, 0.5},
		{"MB", 100, 100},
	}
	for _, c := range cases {
		if got := scaled(c.unit, c.v, factor); got != c.scaled {
			t.Errorf("scaled(%q, %v) = %v, want %v", c.unit, c.v, got, c.scaled)
		}
	}
}

func TestProbeHostTakesTime(t *testing.T) {
	if p := probeHost(); p <= 0 {
		t.Fatalf("probe took %v s", p)
	}
}
