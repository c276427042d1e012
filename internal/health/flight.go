package health

import (
	"bytes"
	"encoding/json"
	"fmt"
	"time"

	"nulpa/internal/metrics"
	"nulpa/internal/trace"
)

// FlightSchema versions the bundle layout. Bump on any field removal or
// rename; additions are backward compatible.
const FlightSchema = 3

// FlightBundle is the post-mortem flight recording of one run: the last
// ringSize health frames (each carrying its iteration record, quality record
// included), the event annotation track, a metrics-registry snapshot, and the
// run's recorded spans — everything needed to reconstruct why a run faulted,
// degraded, or blew its deadline after the fact.
type FlightBundle struct {
	// Schema is FlightSchema at capture time.
	Schema int `json:"schema"`
	// Reason the bundle was captured: "fault", "degraded", "deadline",
	// "canceled", or "request".
	Reason string `json:"reason"`
	// Time stamps the capture.
	Time time.Time `json:"time"`
	// Detector and Vertices echo the monitor Config, Trace its span's trace
	// id and Threshold the convergence bound the monitor judged against.
	Detector  string  `json:"detector,omitempty"`
	Trace     string  `json:"trace,omitempty"`
	Vertices  int     `json:"vertices,omitempty"`
	Threshold float64 `json:"threshold,omitempty"`
	// Iterations is the total frames observed; Frames retains the last
	// ring-full of them.
	Iterations int `json:"iterations"`
	// State is the final health verdict.
	State State `json:"state"`
	// Frames is the retained ring, oldest first.
	Frames []Frame `json:"frames"`
	// Events is the annotation track (state transitions, fault retries,
	// externally recorded outcomes).
	Events []Event `json:"events,omitempty"`
	// Metrics is a flattened registry snapshot at capture time.
	Metrics []metrics.MetricValue `json:"metrics,omitempty"`
	// Spans is the run's recorded span set (resident in the tracer ring at
	// capture), when the monitor knows its trace id.
	Spans []trace.SpanData `json:"spans,omitempty"`
}

// Flight captures the run's flight bundle. reason should be one of the
// FlightBundle.Reason values. Safe during and after Close; nil on a nil
// monitor.
func (m *Monitor) Flight(reason string) *FlightBundle {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	b := &FlightBundle{
		Schema:     FlightSchema,
		Reason:     reason,
		Time:       time.Now(),
		Detector:   m.cfg.Detector,
		Trace:      m.traceID,
		Vertices:   m.cfg.Vertices,
		Threshold:  m.threshold,
		Iterations: m.total,
		State:      m.state,
		Frames:     m.lastFrames(len(m.frames)),
		Events:     append([]Event(nil), m.events...),
	}
	m.mu.Unlock()

	b.Metrics = metrics.Default().Snapshot()
	if id, err := trace.ParseTraceID(b.Trace); err == nil {
		b.Spans = trace.Default().TraceSpans(id)
	}
	mFlightDumps.With(reason).Inc()
	return b
}

// Validate checks a decoded bundle's structural invariants: current schema,
// a capture reason, a coherent state, and frames in iteration order. It is
// what the CLI tests and the chaos suite assert on every dump.
func (b *FlightBundle) Validate() error {
	if b == nil {
		return fmt.Errorf("flight: nil bundle")
	}
	if b.Schema != FlightSchema {
		return fmt.Errorf("flight: schema %d, this build reads %d", b.Schema, FlightSchema)
	}
	if b.Reason == "" {
		return fmt.Errorf("flight: missing capture reason")
	}
	if b.State == "" {
		return fmt.Errorf("flight: missing health state")
	}
	if b.Iterations < len(b.Frames) {
		return fmt.Errorf("flight: %d frames retained but only %d iterations observed", len(b.Frames), b.Iterations)
	}
	// Frames must be time-ordered. Iteration indices may restart within a
	// bundle (a degraded run replays on the fallback backend from iter 0),
	// so wall order, not iter order, is the invariant.
	for i := 1; i < len(b.Frames); i++ {
		if b.Frames[i].Time.Before(b.Frames[i-1].Time) {
			return fmt.Errorf("flight: frames out of time order at index %d", i)
		}
	}
	for i, f := range b.Frames {
		if f.State == "" {
			return fmt.Errorf("flight: frame %d missing state", i)
		}
	}
	return nil
}

// DecodeFlight parses a bundle, rejecting unknown fields so schema drift in
// either direction is caught at the validation gate rather than silently
// ignored.
func DecodeFlight(data []byte) (*FlightBundle, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var b FlightBundle
	if err := dec.Decode(&b); err != nil {
		return nil, fmt.Errorf("flight: %w", err)
	}
	return &b, nil
}
