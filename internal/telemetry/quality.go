package telemetry

// QualityRecord is one iteration's partition-quality telemetry, produced by
// the quality observer the engine attaches when quality accounting is
// enabled. It travels inside its iteration's IterRecord (IterRecord.Quality)
// to every consumer of that record: the result trace, the Recorder, the
// IterSink (the health monitor), and from there traces, metrics, SSE frames
// and the flight bundle.
type QualityRecord struct {
	// Iter is the zero-based iteration index the labels belong to.
	Iter int `json:"iter"`
	// Modularity is the live incremental estimate Q̂ after this iteration.
	Modularity float64 `json:"modularity"`
	// DeltaQ is Q̂'s change from the previous iteration.
	DeltaQ float64 `json:"deltaQ"`

	// Exact reports whether this iteration ran the sampled exact recompute;
	// ExactModularity and Drift (|Q̂ − Q_exact|) are valid only when it did.
	Exact           bool    `json:"exact,omitempty"`
	ExactModularity float64 `json:"exactModularity,omitempty"`
	Drift           float64 `json:"drift,omitempty"`

	// Community census after this iteration.
	Communities   int     `json:"communities"`
	GiantShare    float64 `json:"giantShare"`
	SingletonRate float64 `json:"singletonRate"`
	Entropy       float64 `json:"entropy"`
	// SizeBuckets is the community size histogram: 1, 2–4, 5–16, 17–64,
	// 65–256, 257–1024, >1024.
	SizeBuckets [7]int64 `json:"sizeBuckets"`

	// Flip locality: label changes this iteration by degree class of the
	// flipping vertex.
	Flips     int64 `json:"flips"`
	FlipsLow  int64 `json:"flipsLow,omitempty"`
	FlipsMid  int64 `json:"flipsMid,omitempty"`
	FlipsHigh int64 `json:"flipsHigh,omitempty"`

	// ChurnNMI is the NMI against the previous sampled snapshot (partition
	// churn; 1 = stable), valid when ChurnValid.
	ChurnNMI   float64 `json:"churnNMI,omitempty"`
	ChurnValid bool    `json:"churnValid,omitempty"`
}

// QualityObserver derives a QualityRecord from the label state after one
// iteration. The engine's quality plane implements it over an incremental
// modularity tracker; the Recorder only brokers the call so detectors and
// the convergence loop stay ignorant of the quality package. ok=false means
// the observer declined the labels (wrong length, disabled) and nothing is
// recorded.
type QualityObserver interface {
	ObserveLabels(iter int, labels []uint32) (rec QualityRecord, ok bool)
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
	rec, ok := o.ObserveLabels(iter, labels)
	if !ok {
		return nil
	}
	return &rec
}
