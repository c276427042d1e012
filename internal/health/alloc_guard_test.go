package health_test

import (
	"testing"
	"time"

	"nulpa/internal/health"
	"nulpa/internal/telemetry"
)

// TestHealthDisabledNoAllocs is the health monitor's zero-alloc-when-
// disabled guardrail (the telemetry guard's contract extended to the
// monitor's hooks): a nil *health.Monitor must no-op every method without
// allocating, and a Recorder with no sink attached must pay nothing for the
// superstep feed — engine.ShardLoop calls RecordSuperstep on every superstep
// whenever any profiler is present, monitored or not.
func TestHealthDisabledNoAllocs(t *testing.T) {
	var m *health.Monitor
	rec := telemetry.IterRecord{Iter: 3, DeltaN: 42, Moves: 42, Duration: time.Millisecond}
	durs := []time.Duration{time.Millisecond, 2 * time.Millisecond}

	if a := testing.AllocsPerRun(100, func() { m.ObserveIteration(rec) }); a > 0 {
		t.Errorf("nil monitor ObserveIteration allocates %v per call, want 0", a)
	}
	if a := testing.AllocsPerRun(100, func() { m.ObserveSuperstep(3, durs, time.Millisecond, 7) }); a > 0 {
		t.Errorf("nil monitor ObserveSuperstep allocates %v per call, want 0", a)
	}
	if a := testing.AllocsPerRun(100, func() { m.RecordEvent("x", "y") }); a > 0 {
		t.Errorf("nil monitor RecordEvent allocates %v per call, want 0", a)
	}

	// Recorder with no sink: the superstep dispatch is a mutex round-trip
	// and nothing else.
	r := telemetry.NewRecorder()
	if a := testing.AllocsPerRun(100, func() { r.RecordSuperstep(3, durs, time.Millisecond, 7) }); a > 0 {
		t.Errorf("sinkless RecordSuperstep allocates %v per call, want 0", a)
	}
}

// BenchmarkHealthObserveIteration prices the enabled path: one frame derived
// and ring-stored per call, no subscribers. Not zero-alloc by design (the
// window fit allocates small slices); the point is that it stays O(window),
// independent of run length.
func BenchmarkHealthObserveIteration(b *testing.B) {
	m := health.New(health.Config{Vertices: 1 << 20})
	defer m.Close()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.ObserveIteration(telemetry.IterRecord{
			Iter: i, DeltaN: int64(1 << 20 >> uint(i%20)), Moves: 100, EdgeVisits: 1000,
			ActiveVertices: 500, Duration: time.Millisecond,
		})
	}
}
