package health

import (
	"encoding/json"
	"fmt"
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

// TestMonitorQualityFold: each frame carries its own iteration's quality
// record exactly as the loop attached it — exact and inexact samples alike —
// and an iteration without a quality record carries none.
func TestMonitorQualityFold(t *testing.T) {
	m := New(Config{Vertices: 1000})
	defer m.Close()

	recs := []telemetry.QualityRecord{{
		Modularity: 0.31, DeltaQ: 0.02, Communities: 42, GiantShare: 0.2,
		SingletonRate: 0.05, Entropy: 2.5,
		Exact: true, ExactModularity: 0.31, Drift: 3e-9,
		ChurnNMI: 0.9, ChurnValid: true,
	}, {
		Modularity: 0.33, Drift: 0.5, ChurnNMI: 0.1,
	}}
	for i, q := range recs {
		feedQuality(m, i, int64(500-100*i), q, 5*time.Millisecond)
	}
	m.ObserveIteration(telemetry.IterRecord{Iter: 2, DeltaN: 300, Duration: 5 * time.Millisecond})

	frames := m.Frames()
	if len(frames) != 3 {
		t.Fatalf("%d frames, want 3", len(frames))
	}
	for i, want := range recs {
		want.Iter = i
		if got := frames[i].Quality; got == nil || *got != want {
			t.Errorf("frame %d quality = %+v, want its record %+v", i, got, want)
		}
	}
	if q := frames[2].Quality; q != nil {
		t.Errorf("iteration without a quality record carries %+v", q)
	}
}

// TestMonitorQualityCollapse: modularity falling collapseDrop below the run's
// peak flips the verdict to quality-collapse, with the transition on the
// event track.
func TestMonitorQualityCollapse(t *testing.T) {
	m := New(Config{Vertices: 1000})
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
	m := New(Config{Vertices: 1000})
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
	m := New(Config{Vertices: 1000})
	defer m.Close()
	// Constant ΔN at the threshold: decay slope 0, oscillation not applicable
	// (ΔN never exceeds the threshold), quality flat at 0.4.
	for i := 0; i < window; i++ {
		m.ObserveIteration(telemetry.IterRecord{
			Iter: i, DeltaN: 8, Moves: 8, ActiveVertices: 8, Duration: 5 * time.Millisecond,
			Threshold: 8, Quality: &telemetry.QualityRecord{Iter: i, Modularity: 0.4},
		})
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

// TestMonitorQualityTrackBounded: a bundle's exact quality samples are its
// frames whose "quality" object has "exact" set, so they are bounded by the
// frame ring: of exact samples at every even iteration of ringSize+6, the
// ring keeps those from iteration 6 on.
func TestMonitorQualityTrackBounded(t *testing.T) {
	m := New(Config{Vertices: 100})
	defer m.Close()
	for i := 0; i < ringSize+6; i++ {
		m.ObserveIteration(telemetry.IterRecord{Iter: i, DeltaN: 10, Duration: time.Millisecond,
			Quality: &telemetry.QualityRecord{Iter: i, Modularity: float64(i), Exact: i%2 == 0}})
	}
	data, err := json.Marshal(m.Flight("request"))
	if err != nil {
		t.Fatal(err)
	}
	var raw struct {
		Frames []struct {
			Iter    int `json:"iter"`
			Quality *struct {
				Iter  int  `json:"iter"`
				Exact bool `json:"exact"`
			} `json:"quality"`
		} `json:"frames"`
	}
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	if len(raw.Frames) != ringSize {
		t.Fatalf("bundle retains %d frames, want ring=%d", len(raw.Frames), ringSize)
	}
	var exact []int
	for _, f := range raw.Frames {
		if f.Quality == nil {
			t.Fatalf("frame %d lost its quality record", f.Iter)
		}
		if f.Quality.Iter != f.Iter {
			t.Errorf("frame %d carries the quality record of iteration %d", f.Iter, f.Quality.Iter)
		}
		if f.Quality.Exact {
			exact = append(exact, f.Iter)
		}
	}
	var want []int
	for i := 6; i < ringSize+6; i += 2 {
		want = append(want, i)
	}
	if fmt.Sprint(exact) != fmt.Sprint(want) {
		t.Errorf("exact samples at iterations %v, want %v", exact, want)
	}
}

// TestFlightQualityRoundTrip: a bundle with quality-bearing frames survives
// encode → DecodeFlight (DisallowUnknownFields) → Validate with every
// frame's quality record intact.
func TestFlightQualityRoundTrip(t *testing.T) {
	m := New(Config{Detector: "nulpa", Vertices: 1000})
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
	if n := exactSamples(b); n != 3 {
		t.Fatalf("bundle retains %d exact quality samples, want 3", n)
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
	if len(got.Frames) != len(b.Frames) {
		t.Fatalf("round trip kept %d frames, want %d", len(got.Frames), len(b.Frames))
	}
	for i := range got.Frames {
		if g, w := got.Frames[i].Quality, b.Frames[i].Quality; g == nil || *g != *w {
			t.Errorf("frame %d quality changed in round trip: %+v vs %+v", i, g, w)
		}
	}
	if n := exactSamples(got); n != 3 {
		t.Errorf("round trip kept %d exact quality samples, want 3", n)
	}
}

// exactSamples counts b's frames carrying an exact-recompute quality record.
func exactSamples(b *FlightBundle) int {
	n := 0
	for _, f := range b.Frames {
		if f.Quality != nil && f.Quality.Exact {
			n++
		}
	}
	return n
}
