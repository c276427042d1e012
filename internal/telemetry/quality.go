package telemetry

import "nulpa/internal/quality"

// QualityRecord is one iteration's partition-quality telemetry, produced by
// the quality tracker the engine attaches when quality accounting is
// enabled. It travels inside its iteration's IterRecord (IterRecord.Quality)
// to every consumer of that record: the result trace, the Recorder, the
// IterSink (the health monitor), and from there traces, metrics, SSE frames
// and the flight bundle. It is the tracker's own snapshot type, so no
// consumer reads a copy.
type QualityRecord = quality.LiveStats

// QualityObserver derives a QualityRecord from the label state after one
// iteration. *quality.Tracker implements it; the Recorder only brokers the
// call so detectors and the convergence loop never hold the tracker.
// ok=false means the observer declined the labels (wrong length) and nothing
// is recorded.
type QualityObserver interface {
	Observe(iter int, labels []uint32) (rec QualityRecord, ok bool)
}

// SetQualityObserver attaches the observer ObserveQuality consults; nil
// detaches. Safe to call concurrently with recording.
func (r *Recorder) SetQualityObserver(o QualityObserver) {
	r.mu.Lock()
	r.qualityObs = o
	r.mu.Unlock()
}

// WantsQuality reports whether a quality observer is attached — the gate
// detectors that must materialize labels (crisp labels from overlap memory,
// per-superstep gathers on sharded runs) check before paying that cost.
func (r *Recorder) WantsQuality() bool {
	r.mu.Lock()
	o := r.qualityObs
	r.mu.Unlock()
	return o != nil
}

// ObserveQuality runs the attached observer on one iteration's labels and
// returns the record to attach to that iteration's IterRecord, or nil when
// no observer is attached or it declined the labels. With no observer it is
// a zero-allocation no-op (one mutex round-trip) — the convergence loop
// calls it unconditionally whenever a profiler is present.
func (r *Recorder) ObserveQuality(iter int, labels []uint32) *QualityRecord {
	r.mu.Lock()
	o := r.qualityObs
	r.mu.Unlock()
	if o == nil {
		return nil
	}
	rec, ok := o.Observe(iter, labels)
	if !ok {
		return nil
	}
	return &rec
}
