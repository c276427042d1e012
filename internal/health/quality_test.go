package health

import (
	"encoding/json"
	"math"
	"testing"
	"time"

	"nulpa/internal/telemetry"
)

// feedQuality pushes one iteration through the monitor carrying a quality
// record, the way the engine loop attaches it.
func feedQuality(m *Monitor, iter int, delta int64, q telemetry.QualityRecord, dur time.Duration) {
	q.Iter = iter
	m.ObserveIteration(telemetry.IterRecord{
		Iter: iter, DeltaN: delta, Moves: delta, ActiveVertices: delta, Duration: dur,
		Quality: &q,
	})
}

// TestMonitorQualityFold: an iteration's quality record is folded into that
// iteration's frame; drift appears only on sampled (exact) records and churn
// only when valid; an iteration without a quality record stays
// quality-free.
func TestMonitorQualityFold(t *testing.T) {
	m := New(Config{Vertices: 1000, Threshold: 1})
	defer m.Close()

	feedQuality(m, 0, 500, telemetry.QualityRecord{
		Modularity: 0.31, DeltaQ: 0.02, Communities: 42, GiantShare: 0.2,
		SingletonRate: 0.05, Entropy: 2.5,
		Exact: true, ExactModularity: 0.31, Drift: 3e-9,
		ChurnNMI: 0.9, ChurnValid: true,
	}, 5*time.Millisecond)

	frames := m.Frames()
	f := frames[len(frames)-1]
	if !f.HasQuality {
		t.Fatal("frame did not fold the quality record")
	}
	if f.Modularity != 0.31 || f.DeltaQ != 0.02 || f.Communities != 42 {
		t.Errorf("folded quality = (Q %v, ΔQ %v, communities %d)", f.Modularity, f.DeltaQ, f.Communities)
	}
	if f.GiantShare != 0.2 || f.SingletonRate != 0.05 || f.LabelEntropy != 2.5 {
		t.Errorf("folded census = (giant %v, singleton %v, entropy %v)",
			f.GiantShare, f.SingletonRate, f.LabelEntropy)
	}
	if f.QualityDrift != 3e-9 {
		t.Errorf("drift %v not folded from an exact record", f.QualityDrift)
	}
	if f.ChurnNMI != 0.9 {
		t.Errorf("churn NMI %v not folded", f.ChurnNMI)
	}

	// Inexact record: drift must stay zero even though the record carries a
	// stale Drift field; invalid churn must not leak either.
	feedQuality(m, 1, 400, telemetry.QualityRecord{
		Modularity: 0.33, Drift: 0.5, ChurnNMI: 0.1,
	}, 5*time.Millisecond)
	frames = m.Frames()
	f = frames[len(frames)-1]
	if !f.HasQuality || f.Modularity != 0.33 {
		t.Fatalf("second record not folded (HasQuality %v, Q %v)", f.HasQuality, f.Modularity)
	}
	if f.QualityDrift != 0 || f.ChurnNMI != 0 {
		t.Errorf("inexact record leaked drift %v / churn %v", f.QualityDrift, f.ChurnNMI)
	}

	// No quality record ⇒ the frame stays quality-free.
	m.ObserveIteration(telemetry.IterRecord{Iter: 2, DeltaN: 300, Duration: 5 * time.Millisecond})
	frames = m.Frames()
	f = frames[len(frames)-1]
	if f.HasQuality || f.Modularity != 0 {
		t.Errorf("stale quality record folded into iter %d (HasQuality %v, Q %v)",
			f.Iter, f.HasQuality, f.Modularity)
	}
}

// TestMonitorQualityCollapse: modularity falling collapseDrop below the run's
// peak flips the verdict to quality-collapse, with the transition on the
// event track.
func TestMonitorQualityCollapse(t *testing.T) {
	m := New(Config{Vertices: 1000, Threshold: 1})
	defer m.Close()

	for i, q := range []float64{0.10, 0.22, 0.31} {
		feedQuality(m, i, 500, telemetry.QualityRecord{Modularity: q}, 5*time.Millisecond)
	}
	if s := m.State(); s == StateCollapse {
		t.Fatalf("collapse before any drop (state %s)", s)
	}
	// Peak 0.31, now 0.05: a 0.26 fall ≥ the 0.1 default.
	feedQuality(m, 3, 500, telemetry.QualityRecord{Modularity: 0.05}, 5*time.Millisecond)
	if s := m.State(); s != StateCollapse {
		t.Fatalf("state = %s after a 0.26 modularity fall, want %s", s, StateCollapse)
	}
	found := false
	for _, e := range m.Events() {
		if e.Name == "health:"+string(StateCollapse) {
			found = true
		}
	}
	if !found {
		t.Error("no quality-collapse transition on the event track")
	}

	// Recovery back above peak−collapseDrop releases the verdict.
	feedQuality(m, 4, 10, telemetry.QualityRecord{Modularity: 0.30}, 5*time.Millisecond)
	if s := m.State(); s == StateCollapse {
		t.Error("collapse verdict sticky after modularity recovered")
	}
}

// TestMonitorQualityCollapseNeedsPeak: warmup noise around Q≈0 must not arm
// the collapse detector — the peak floor is 0.05.
func TestMonitorQualityCollapseNeedsPeak(t *testing.T) {
	m := New(Config{Vertices: 1000, Threshold: 1})
	defer m.Close()
	for i, q := range []float64{0.04, 0.03, 0.02, -0.10} {
		feedQuality(m, i, 500, telemetry.QualityRecord{Modularity: q}, 5*time.Millisecond)
	}
	if s := m.State(); s == StateCollapse {
		t.Fatalf("collapse armed from a %v peak below the 0.05 floor", 0.04)
	}
}

// TestMonitorQualityPlateau: a flat positive modularity across a full window
// with flips near the threshold reads as converging even when the ΔN decay
// fit alone would not call it.
func TestMonitorQualityPlateau(t *testing.T) {
	m := New(Config{Vertices: 1000, Threshold: 8, Window: 4})
	defer m.Close()
	// Constant ΔN at the threshold: decay slope 0, oscillation not applicable
	// (ΔN never exceeds the threshold), quality flat at 0.4.
	for i := 0; i < 6; i++ {
		feedQuality(m, i, 8, telemetry.QualityRecord{Modularity: 0.4}, 5*time.Millisecond)
	}
	frames := m.Frames()
	f := frames[len(frames)-1]
	if math.Abs(f.QualityTrend) > 1e-12 {
		t.Errorf("quality trend %v on a flat run, want ≈ 0", f.QualityTrend)
	}
	if f.State != StateConverging {
		t.Errorf("state = %s on a quality plateau at threshold flips, want %s", f.State, StateConverging)
	}
}

// TestMonitorQualityTrackBounded: only sampled (exact) records are retained,
// bounded by RingSize, oldest evicted first.
func TestMonitorQualityTrackBounded(t *testing.T) {
	m := New(Config{Vertices: 100, RingSize: 4})
	defer m.Close()
	for i := 0; i < 10; i++ {
		m.ObserveIteration(telemetry.IterRecord{Iter: i, DeltaN: 10, Duration: time.Millisecond,
			Quality: &telemetry.QualityRecord{Iter: i, Modularity: float64(i), Exact: i%2 == 0}})
	}
	track := m.QualityTrack()
	if len(track) != 4 {
		t.Fatalf("track retains %d records, want RingSize=4", len(track))
	}
	// Exact records were iters 0,2,4,6,8; the last four survive.
	for i, want := range []int{2, 4, 6, 8} {
		if track[i].Iter != want {
			t.Errorf("track[%d].Iter = %d, want %d", i, track[i].Iter, want)
		}
		if !track[i].Exact {
			t.Errorf("track[%d] is not an exact record", i)
		}
	}
}

// TestFlightQualityRoundTrip is satellite coverage for the schema-2 quality
// track: a bundle with quality-bearing frames and a sampled-record track
// survives encode → DecodeFlight (DisallowUnknownFields) → Validate intact.
func TestFlightQualityRoundTrip(t *testing.T) {
	m := New(Config{Detector: "nulpa", Vertices: 1000, Threshold: 1, RingSize: 8})
	defer m.Close()
	for i := 0; i < 6; i++ {
		feedQuality(m, i, int64(500>>i), telemetry.QualityRecord{
			Modularity: 0.1 * float64(i), Communities: 50 - i,
			Exact: i%2 == 0, ExactModularity: 0.1 * float64(i), Drift: 1e-9,
		}, 5*time.Millisecond)
	}
	b := m.Flight("request")
	if b.Schema != FlightSchema {
		t.Fatalf("bundle schema %d, want %d", b.Schema, FlightSchema)
	}
	if len(b.Quality) != 3 {
		t.Fatalf("bundle retains %d quality records, want 3 exact samples", len(b.Quality))
	}

	data, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeFlight(data)
	if err != nil {
		t.Fatalf("DecodeFlight: %v", err)
	}
	if err := got.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if len(got.Quality) != len(b.Quality) {
		t.Fatalf("round trip kept %d quality records, want %d", len(got.Quality), len(b.Quality))
	}
	for i := range got.Quality {
		if got.Quality[i] != b.Quality[i] {
			t.Errorf("quality record %d changed in round trip: %+v vs %+v", i, got.Quality[i], b.Quality[i])
		}
	}
	var hasQ bool
	for _, f := range got.Frames {
		if f.HasQuality && f.Modularity > 0 {
			hasQ = true
		}
	}
	if !hasQ {
		t.Error("no quality-bearing frame survived the round trip")
	}
}
