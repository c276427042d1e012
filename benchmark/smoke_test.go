package main

import (
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestSmokeEveryWorkloadEmitsEveryMetric runs each workload at toy scale,
// untraced and traced, and checks that every metric BENCHMARK.json names is
// emitted with its unit, that every output passed the oracle, and that the
// traced run wrote its spans.
func TestSmokeEveryWorkloadEmitsEveryMetric(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	ws, err := selectWorkloads(spec, "all", true)
	if err != nil {
		t.Fatal(err)
	}
	quietLogs()
	out := t.TempDir()
	for _, w := range ws {
		for _, trace := range []bool{false, true} {
			cfg := config{spec: spec, seed: 1, trace: trace, short: true, outDir: out}
			if w.serve {
				cfg.seconds = 2 * time.Second
			}
			rec, err := runWorkload(w, cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !rec.Correct || rec.Attempted == 0 {
				t.Errorf("%s trace=%v: %d of %d failed: %v", w.name, trace, rec.Failed, rec.Attempted, rec.Errors)
			}
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			for _, m := range want {
				got, ok := rec.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", w.name, trace, m.Name, got, m.Unit)
				}
			}
			if len(rec.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.name, trace, len(rec.Metrics), len(want))
			}
		}
		if fi, err := os.Stat(filepath.Join(out, "trace-"+w.name+".jsonl")); err != nil || fi.Size() == 0 {
			t.Errorf("%s: no spans written: %v", w.name, err)
		}
	}
}

// TestOracleFailureIsCountedNotFatal checks that a rep failing the oracle
// makes the run incorrect while every metric is still reported.
func TestOracleFailureIsCountedNotFatal(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	w := workloads(true)[1]
	w.floor = 2 // above any modularity
	rec, err := runWorkload(w, config{spec: spec, seed: 1, short: true})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Correct || rec.Failed != rec.Attempted || len(rec.Errors) == 0 {
		t.Errorf("correct=%v failed=%d attempted=%d errors=%v, want every rep failed",
			rec.Correct, rec.Failed, rec.Attempted, rec.Errors)
	}
	if len(rec.Metrics) != len(spec.EndToEnd) {
		t.Errorf("%d metrics reported, want %d", len(rec.Metrics), len(spec.EndToEnd))
	}
}
