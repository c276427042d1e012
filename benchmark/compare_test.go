package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestJudge(t *testing.T) {
	lower := metricSpec{Name: "e2e_s", Better: "lower", Bound: 0.1}
	higher := metricSpec{Name: "requests_per_s", Better: "higher", Bound: 0.1}
	steady := []float64{1.00, 1.01, 0.99, 1.00, 1.02, 0.98}
	scaled := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	cases := []struct {
		name string
		m    metricSpec
		a, b []float64
		want verdict
	}{
		{"same", lower, steady, steady, agree},
		{"lower-better within bound", lower, steady, scaled(steady, 1.08), agree},
		{"lower-better beyond bound", lower, steady, scaled(steady, 1.15), worse},
		{"lower-better improved", lower, steady, scaled(steady, 0.5), agree},
		{"higher-better within bound", higher, steady, scaled(steady, 0.92), agree},
		{"higher-better beyond bound", higher, steady, scaled(steady, 0.85), worse},
		{"higher-better improved", higher, steady, scaled(steady, 2), agree},
		{"noisy", lower, steady, []float64{0.7, 1.3, 0.8, 1.2, 1.0, 1.1}, unresolved},
		{"noisy but every run better", lower, []float64{2, 3, 4, 5}, []float64{0.5, 0.7, 0.9, 1.1}, agree},
	}
	for _, c := range cases {
		if got := judge(c.m, c.a, c.b); got != c.want {
			t.Errorf("%s: judge = %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareSetsFailsOnlyOnWorseOrMissing(t *testing.T) {
	spec := &benchSpec{EndToEnd: []metricSpec{
		{Name: "e2e_s", Unit: "s", Better: "lower", Bound: 0.1},
		{Name: "modularity", Unit: "Q", Better: "higher", Bound: 0.02},
	}}
	set := func(e2e, q float64) []record {
		var recs []record
		for i := 0; i < 4; i++ {
			recs = append(recs, record{Workload: "w", Metrics: map[string]metricValue{
				"e2e_s":      {Value: e2e * (1 + 0.001*float64(i))},
				"modularity": {Value: q},
			}})
		}
		return recs
	}
	var out bytes.Buffer
	if !compareSets(spec, set(1, 0.5), set(1.02, 0.5), &out) {
		t.Fatalf("sets within bounds disagree:\n%s", out.String())
	}
	out.Reset()
	if compareSets(spec, set(1, 0.5), set(1, 0.45), &out) || !strings.Contains(out.String(), "WORSE") {
		t.Fatalf("a 10%% modularity drop passed:\n%s", out.String())
	}
	b := set(1, 0.5)
	for i := range b {
		delete(b[i].Metrics, "modularity")
	}
	if compareSets(spec, set(1, 0.5), b, &out) {
		t.Fatal("a metric missing from one set passed")
	}
	out.Reset()
	noisy := set(1, 0.5)
	noisy[0].Metrics["e2e_s"] = metricValue{Value: 3}
	noisy[1].Metrics["e2e_s"] = metricValue{Value: 0.3}
	if !compareSets(spec, set(1, 0.5), noisy, &out) || !strings.Contains(out.String(), "UNRESOLVED") {
		t.Fatalf("an unresolved metric decided the comparison:\n%s", out.String())
	}
}
