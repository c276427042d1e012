package engine

import (
	"context"
	"testing"
	"time"

	"nulpa/internal/graph"
	"nulpa/internal/telemetry"
	"nulpa/internal/trace"
)

func TestLoopFeedsMetrics(t *testing.T) {
	itersBefore := mIterations.Value()
	movesBefore := mMoves.Value()
	secondsBefore := mIterSeconds.Count()

	lr := Loop(LoopConfig{MaxIterations: 10, Threshold: 3}, func(_ context.Context, iter int) IterOutcome {
		return IterOutcome{Record: telemetry.IterRecord{
			DeltaN:   int64(5 - iter), // 5,4,3, then 2 < 3 stops the loop
			Duration: time.Microsecond,
		}}
	})
	if lr.Iterations != 4 || !lr.Converged {
		t.Fatalf("loop ran %d iterations (converged=%v), want 4/true", lr.Iterations, lr.Converged)
	}
	if got := mIterations.Value() - itersBefore; got != 4 {
		t.Errorf("engine_iterations_total advanced by %d, want 4", got)
	}
	if got := mMoves.Value() - movesBefore; got != 5+4+3+2 {
		t.Errorf("engine_moves_total advanced by %d, want 14", got)
	}
	if got := mIterSeconds.Count() - secondsBefore; got != 4 {
		t.Errorf("engine_iteration_seconds count advanced by %d, want 4", got)
	}
}

func TestRegisterInstrumentsDetector(t *testing.T) {
	Register(fakeDetector{"test-metrics"})
	d, ok := Get("test-metrics")
	if !ok {
		t.Fatal("detector not registered")
	}
	w, ok := d.(instrumented)
	if !ok {
		t.Fatalf("Get returned %T, want the instrumented wrapper", d)
	}
	if _, ok := w.d.(fakeDetector); !ok {
		t.Fatalf("the wrapper decorates %T, want fakeDetector", w.d)
	}

	runsBefore := mRuns.With("test-metrics").Value()
	activeBefore := mActiveRuns.Value()
	b := graph.NewBuilder(2)
	b.AddEdge(0, 1, 1)
	g, err := b.Build(2, graph.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Detect(g, Options{}); err != nil {
		t.Fatal(err)
	}
	if got := mRuns.With("test-metrics").Value(); got != runsBefore+1 {
		t.Errorf("engine_runs_total = %d, want %d", got, runsBefore+1)
	}
	if got := mRunSeconds.With("test-metrics").Count(); got < 1 {
		t.Errorf("engine_run_seconds has no observations")
	}
	if got := mActiveRuns.Value(); got != activeBefore {
		t.Errorf("engine_active_runs = %g after run, want %g", got, activeBefore)
	}
}

type panicDetector struct{}

func (panicDetector) Name() string { return "test-metrics-panic" }
func (panicDetector) Detect(*graph.CSR, Options) (*Result, error) {
	panic("detector blew up")
}

// TestActiveRunsBalancedAfterPanic: a detector panic that the caller
// recovers, as the scheduler's runTask does, leaves engine_active_runs
// where it was, and leaves the run's evidence: the detect span ended with
// the panic as its error, and the run counted in engine_run_seconds and
// engine_run_errors_total.
func TestActiveRunsBalancedAfterPanic(t *testing.T) {
	Register(panicDetector{})
	d, _ := Get("test-metrics-panic")
	b := graph.NewBuilder(2)
	b.AddEdge(0, 1, 1)
	g, err := b.Build(2, graph.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.New(0)
	tr.SetEnabled(true)
	ctx, root := tr.Root(context.Background(), "run")
	activeBefore := mActiveRuns.Value()
	secondsBefore := mRunSeconds.With("test-metrics-panic").Count()
	errorsBefore := mRunErrors.With("test-metrics-panic").Value()
	func() {
		defer func() {
			if r := recover(); r != "detector blew up" {
				t.Fatalf("Detect recovered %v, want the detector's panic", r)
			}
		}()
		d.Detect(g, Options{Context: ctx})
	}()
	root.End()
	if got := mActiveRuns.Value(); got != activeBefore {
		t.Errorf("engine_active_runs = %g after a recovered panic, want %g", got, activeBefore)
	}
	if got := mRunSeconds.With("test-metrics-panic").Count(); got != secondsBefore+1 {
		t.Errorf("engine_run_seconds count = %d after a panic, want %d", got, secondsBefore+1)
	}
	if got := mRunErrors.With("test-metrics-panic").Value(); got != errorsBefore+1 {
		t.Errorf("engine_run_errors_total = %d after a panic, want %d", got, errorsBefore+1)
	}
	var detect *trace.SpanData
	for _, s := range tr.TraceSpans(root.TraceID()) {
		if s.Name == "detect" {
			detect = &s
		}
	}
	if detect == nil {
		t.Fatal("no detect span published after a panic")
	}
	if got := detect.Attrs["error"]; got != "panic: detector blew up" {
		t.Errorf("detect span error = %v, want %q", got, "panic: detector blew up")
	}
}
