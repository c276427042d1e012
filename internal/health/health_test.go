package health

import (
	"testing"
	"time"

	"nulpa/internal/telemetry"
)

// feed pushes n iteration records through the monitor with the given ΔN
// schedule and a constant duration.
func feed(m *Monitor, deltas []int64, dur time.Duration) {
	for i, d := range deltas {
		m.ObserveIteration(telemetry.IterRecord{
			Iter: i, DeltaN: d, Moves: d, EdgeVisits: 10 * d, ActiveVertices: d,
			Duration: dur,
		})
	}
}

func TestMonitorConvergingAndETA(t *testing.T) {
	m := New(Config{Vertices: 2048})
	defer m.Close()
	// Geometric halving: slope ≈ -ln 2, well below the converging cut.
	feed(m, []int64{1024, 512, 256, 128, 64}, 10*time.Millisecond)

	frames := m.Frames()
	last := frames[len(frames)-1]
	if last.State != StateConverging {
		t.Fatalf("state = %s, want %s (slope %.3f)", last.State, StateConverging, last.DecaySlope)
	}
	if last.DecaySlope > -0.5 {
		t.Fatalf("decay slope = %.3f, want ≈ -ln2", last.DecaySlope)
	}
	// ΔN=64 decaying at ln2 per iteration needs ~6 more iterations to reach 1.
	if last.ETAIterations < 3 || last.ETAIterations > 12 {
		t.Fatalf("ETA = %.1f iterations, want ≈ 6", last.ETAIterations)
	}
	if last.FlipRate != 64.0/2048 {
		t.Fatalf("flip rate = %v", last.FlipRate)
	}
	if last.OscillationScore != 0 {
		t.Fatalf("oscillation score = %v on a strictly decaying run", last.OscillationScore)
	}

	// Once ΔN crosses the threshold the ETA collapses to zero.
	m.ObserveIteration(telemetry.IterRecord{Iter: 5, DeltaN: 1, Duration: 10 * time.Millisecond})
	frames = m.Frames()
	if eta := frames[len(frames)-1].ETAIterations; eta != 0 {
		t.Fatalf("ETA below threshold = %v, want 0", eta)
	}
}

func TestMonitorOscillation(t *testing.T) {
	m := New(Config{Vertices: 1000})
	defer m.Close()
	deltas := make([]int64, 10)
	for i := range deltas {
		deltas[i] = 500 // never decays
	}
	feed(m, deltas, 5*time.Millisecond)
	if st := m.State(); st != StateOscillating {
		t.Fatalf("state = %s, want %s", st, StateOscillating)
	}
	frames := m.Frames()
	if sc := frames[len(frames)-1].OscillationScore; sc < 0.99 {
		t.Fatalf("oscillation score = %v, want 1", sc)
	}
	// The transition must be on the event track.
	found := false
	for _, e := range m.Events() {
		if e.Name == "health:"+string(StateOscillating) {
			found = true
		}
	}
	if !found {
		t.Fatalf("no oscillating transition event; events = %+v", m.Events())
	}
}

func TestMonitorPickLessExcluded(t *testing.T) {
	m := New(Config{Vertices: 1000})
	defer m.Close()
	// Pick-Less rounds suppress ΔN by design; interleaved with decaying
	// regular rounds they must not register as oscillation (the rebound
	// after each Pick-Less round is expected, not pathological).
	recs := []telemetry.IterRecord{
		{Iter: 0, DeltaN: 800},
		{Iter: 1, DeltaN: 10, PickLess: true},
		{Iter: 2, DeltaN: 400},
		{Iter: 3, DeltaN: 8, PickLess: true},
		{Iter: 4, DeltaN: 200},
		{Iter: 5, DeltaN: 100},
	}
	for _, r := range recs {
		r.Duration = 5 * time.Millisecond
		m.ObserveIteration(r)
	}
	frames := m.Frames()
	last := frames[len(frames)-1]
	if last.OscillationScore != 0 {
		t.Fatalf("oscillation score = %v with Pick-Less interleaving, want 0", last.OscillationScore)
	}
	if last.DecaySlope >= 0 {
		t.Fatalf("decay slope = %v, want negative", last.DecaySlope)
	}
}

func TestMonitorStallDetection(t *testing.T) {
	m := New(Config{Vertices: 1000})
	defer m.Close()
	feed(m, []int64{100, 90, 80, 70, 60}, 10*time.Millisecond)
	if st := m.State(); st == StateStalled {
		t.Fatalf("stalled on uniform durations")
	}
	// One iteration at 20× the median: the stall detector must fire.
	m.ObserveIteration(telemetry.IterRecord{Iter: 5, DeltaN: 50, Duration: 200 * time.Millisecond})
	frames := m.Frames()
	last := frames[len(frames)-1]
	if !last.StallSuspect {
		t.Fatalf("stall not suspected: factor = %.1f", last.DurationFactor)
	}
	if last.State != StateStalled {
		t.Fatalf("state = %s, want %s", last.State, StateStalled)
	}
}

func TestMonitorSuperstepFold(t *testing.T) {
	m := New(Config{Vertices: 100})
	defer m.Close()
	durs := []time.Duration{2 * time.Millisecond, 30 * time.Millisecond, 2 * time.Millisecond, 2 * time.Millisecond}
	m.ObserveSuperstep(0, durs, 84*time.Millisecond, 17)
	m.ObserveIteration(telemetry.IterRecord{Iter: 0, DeltaN: 50, Duration: 32 * time.Millisecond})

	f := m.Frames()[0]
	if f.Shards != 4 {
		t.Fatalf("shards = %d", f.Shards)
	}
	if f.StragglerShard != 1 {
		t.Fatalf("straggler shard = %d, want 1", f.StragglerShard)
	}
	if f.StragglerSkew < 10 {
		t.Fatalf("skew = %v, want 15 (30ms over 2ms median)", f.StragglerSkew)
	}
	if f.BarrierWaitUS != 84000 {
		t.Fatalf("barrier wait = %v µs", f.BarrierWaitUS)
	}
	// Share: 84ms idle over 4 shards × 30ms max = 0.7.
	if f.BarrierWaitShare < 0.69 || f.BarrierWaitShare > 0.71 {
		t.Fatalf("barrier wait share = %v, want 0.7", f.BarrierWaitShare)
	}
	if f.HaloLabels != 17 {
		t.Fatalf("halo labels = %d", f.HaloLabels)
	}

	// A balanced superstep carries no straggler.
	m.ObserveSuperstep(1, []time.Duration{5 * time.Millisecond, 5 * time.Millisecond}, 0, 0)
	m.ObserveIteration(telemetry.IterRecord{Iter: 1, DeltaN: 40, Duration: 5 * time.Millisecond})
	f = m.Frames()[1]
	if f.StragglerShard != -1 {
		t.Fatalf("balanced superstep flagged shard %d", f.StragglerShard)
	}
	// Stale superstep info must not leak into an unrelated iteration.
	m.ObserveIteration(telemetry.IterRecord{Iter: 2, DeltaN: 30, Duration: 5 * time.Millisecond})
	f = m.Frames()[2]
	if f.Shards != 0 || f.HaloLabels != 0 {
		t.Fatalf("superstep info leaked into iteration 2: %+v", f)
	}
}

func TestMonitorRingBounds(t *testing.T) {
	m := New(Config{Vertices: 100})
	defer m.Close()
	deltas := make([]int64, ringSize+6)
	for i := range deltas {
		deltas[i] = int64(100 - i)
	}
	feed(m, deltas, time.Millisecond)
	if m.Total() != ringSize+6 {
		t.Fatalf("total = %d", m.Total())
	}
	frames := m.Frames()
	if len(frames) != ringSize {
		t.Fatalf("ring retained %d frames, want %d", len(frames), ringSize)
	}
	for i, f := range frames {
		if f.Iter != 6+i {
			t.Fatalf("frame %d is iter %d, want %d", i, f.Iter, 6+i)
		}
	}
}

func TestMonitorSubscribe(t *testing.T) {
	m := New(Config{Vertices: 100})
	feed(m, []int64{50, 40}, time.Millisecond)

	past, sub := m.Subscribe()
	defer sub.Cancel()
	ch := sub.Frames
	if len(past) != 2 {
		t.Fatalf("catch-up = %d frames, want 2", len(past))
	}
	m.ObserveIteration(telemetry.IterRecord{Iter: 2, DeltaN: 30, Duration: time.Millisecond})
	select {
	case f := <-ch:
		if f.Iter != 2 {
			t.Fatalf("live frame iter = %d", f.Iter)
		}
	case <-time.After(time.Second):
		t.Fatal("no live frame delivered")
	}
	m.Close()
	select {
	case _, ok := <-ch:
		if ok {
			t.Fatal("unexpected frame after close")
		}
	case <-time.After(time.Second):
		t.Fatal("channel not closed on Close")
	}

	// Subscribing after close still yields the catch-up frames and a closed
	// channel — a late SSE client sees the whole finished run.
	past, sub2 := m.Subscribe()
	defer sub2.Cancel()
	if len(past) != 3 {
		t.Fatalf("post-close catch-up = %d frames, want 3", len(past))
	}
	if _, ok := <-sub2.Frames; ok {
		t.Fatal("post-close channel not closed")
	}
}

// TestSubscriberLagAccounting: a subscriber that never drains loses frames
// once its buffer fills, and its Dropped counter says exactly how many — the
// per-client signal behind the SSE "lagged" disconnect. A second, draining
// subscriber is unaffected by its sibling's backpressure.
func TestSubscriberLagAccounting(t *testing.T) {
	m := New(Config{Vertices: 10_000})
	defer m.Close()
	_, stalled := m.Subscribe()
	defer stalled.Cancel()
	_, healthy := m.Subscribe()
	defer healthy.Cancel()

	const extra = 10
	for i := 0; i < subBuffer+extra; i++ {
		m.ObserveIteration(telemetry.IterRecord{Iter: i, DeltaN: 5, Duration: time.Microsecond})
		select { // drain the healthy subscriber in lock-step
		case <-healthy.Frames:
		default:
			t.Fatalf("healthy subscriber starved at frame %d", i)
		}
	}
	if got := stalled.Dropped(); got != extra {
		t.Fatalf("stalled subscriber dropped %d frames, want %d", got, extra)
	}
	if got := healthy.Dropped(); got != 0 {
		t.Fatalf("draining subscriber dropped %d frames, want 0", got)
	}
	var nilSub *Subscription
	if nilSub.Dropped() != 0 {
		t.Fatal("nil subscription dropped != 0")
	}
	nilSub.Cancel() // no panic
}

func TestMonitorRetryEvent(t *testing.T) {
	m := New(Config{Vertices: 100})
	defer m.Close()
	m.ObserveIteration(telemetry.IterRecord{Iter: 0, DeltaN: 10, Retries: 2, Duration: time.Millisecond})
	var found bool
	for _, e := range m.Events() {
		if e.Name == "fault:retry" && e.Iter == 0 {
			found = true
		}
	}
	if !found {
		t.Fatalf("no fault:retry event; events = %+v", m.Events())
	}
}

func TestNilMonitorNoOps(t *testing.T) {
	var m *Monitor
	m.ObserveIteration(telemetry.IterRecord{Iter: 0, DeltaN: 1})
	m.ObserveSuperstep(0, []time.Duration{time.Millisecond}, 0, 0)
	m.SetTarget(10)
	m.RecordEvent("x", "y")
	m.Close()
	if m.Frames() != nil || m.Events() != nil || m.Total() != 0 || m.State() != "" {
		t.Fatal("nil monitor leaked state")
	}
	if b := m.Flight("request"); b != nil {
		t.Fatal("nil monitor produced a bundle")
	}
	past, sub := m.Subscribe()
	sub.Cancel()
	if len(past) != 0 {
		t.Fatal("nil monitor catch-up")
	}
	if _, ok := <-sub.Frames; ok {
		t.Fatal("nil monitor channel open")
	}
}

func TestRecorderSinkDispatch(t *testing.T) {
	rec := telemetry.NewRecorder()
	m := New(Config{Vertices: 100})
	defer m.Close()
	rec.SetSink(m)
	rec.RecordIteration(telemetry.IterRecord{Iter: 0, DeltaN: 10, Duration: time.Millisecond})
	rec.RecordSuperstep(1, []time.Duration{time.Millisecond, 5 * time.Millisecond}, 4*time.Millisecond, 3)
	rec.RecordIteration(telemetry.IterRecord{Iter: 1, DeltaN: 8, Duration: time.Millisecond})
	if m.Total() != 2 {
		t.Fatalf("sink observed %d iterations, want 2", m.Total())
	}
	if f := m.Frames()[1]; f.Shards != 2 || f.HaloLabels != 3 {
		t.Fatalf("superstep not folded through recorder: %+v", f)
	}
}
