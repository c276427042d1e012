package engine_test

import (
	"context"
	"testing"

	"nulpa/internal/engine"
	"nulpa/internal/metrics"
	"nulpa/internal/telemetry"
	"nulpa/internal/trace"
)

// TestFLPAReachesEveryObserver pins FLPA to the one iteration path: each
// queue generation is an engine.Loop iteration, so it opens an iteration
// span, advances the engine_* iteration metrics, reaches the profiler and
// feeds the quality plane like the round-based detectors' iterations.
func TestFLPAReachesEveryObserver(t *testing.T) {
	det, err := engine.MustGet("flpa")
	if err != nil {
		t.Fatal(err)
	}
	iterations := metrics.Default().Counter("engine_iterations_total", "")
	flips := metrics.Default().CounterVec("engine_quality_flips_total", "", "degree")
	flipCount := func() int64 {
		return flips.With("low").Value() + flips.With("mid").Value() + flips.With("high").Value()
	}
	iters0, flips0 := iterations.Value(), flipCount()

	tr := trace.New(0)
	tr.SetEnabled(true)
	ctx, root := tr.Root(context.Background(), "run")
	rec := telemetry.NewRecorder()
	opt := engine.DefaultOptions()
	opt.Context = ctx
	opt.Profiler = rec
	opt.Quality.Enabled = true
	res, err := det.Detect(conformanceGraphs()["planted"], opt)
	if err != nil {
		t.Fatal(err)
	}
	root.End()
	if res.Iterations < 2 {
		t.Fatalf("FLPA ran %d generations; the test needs several", res.Iterations)
	}

	spans := 0
	for _, s := range tr.TraceSpans(root.TraceID()) {
		if s.Name == "iteration" {
			spans++
		}
	}
	if spans != res.Iterations {
		t.Errorf("%d iteration spans, want one per generation (%d)", spans, res.Iterations)
	}
	if d := iterations.Value() - iters0; d != int64(res.Iterations) {
		t.Errorf("engine_iterations_total advanced by %d, want %d", d, res.Iterations)
	}
	if got := len(rec.IterRecords()); got != res.Iterations {
		t.Errorf("profiler recorded %d iterations, want %d", got, res.Iterations)
	}
	if flipCount() == flips0 {
		t.Error("engine_quality_flips_total did not advance")
	}
}
