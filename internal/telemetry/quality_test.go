package telemetry

import "testing"

// stubQualityObserver returns a fixed record for any full-length labeling.
type stubQualityObserver struct {
	rec   QualityRecord
	calls int
}

func (o *stubQualityObserver) Observe(iter int, labels []uint32) (QualityRecord, bool) {
	o.calls++
	r := o.rec
	r.Iter = iter
	return r, true
}

func TestObserveQualityDispatch(t *testing.T) {
	r := NewRecorder()
	labels := []uint32{0, 1, 1}

	if rec := r.ObserveQuality(0, labels); rec != nil {
		t.Fatal("ObserveQuality reported a record with no observer attached")
	}
	if r.WantsQuality() {
		t.Fatal("WantsQuality true with no observer")
	}

	obs := &stubQualityObserver{rec: QualityRecord{Modularity: 0.5, Communities: 2}}
	r.SetQualityObserver(obs)
	if !r.WantsQuality() {
		t.Fatal("WantsQuality false with an observer attached")
	}
	for i := 0; i < 3; i++ {
		rec := r.ObserveQuality(i, labels)
		if rec == nil || rec.Iter != i || rec.Modularity != 0.5 {
			t.Fatalf("iter %d: record %+v", i, rec)
		}
	}
	if obs.calls != 3 {
		t.Fatalf("observer called %d times, want 3", obs.calls)
	}
	r.SetQualityObserver(nil)
	if r.WantsQuality() {
		t.Fatal("WantsQuality true after detach")
	}
	if rec := r.ObserveQuality(3, labels); rec != nil {
		t.Fatal("ObserveQuality ran a detached observer")
	}
}

// TestObserveQualityDisabledNoAllocs is the quality plane's half of the
// zero-alloc-when-disabled contract: the convergence loop calls
// ObserveQuality every iteration whenever a profiler is attached, so with no
// quality observer the call must cost one mutex round-trip and zero
// allocations — quality telemetry must be free for everyone not using it.
func TestObserveQualityDisabledNoAllocs(t *testing.T) {
	r := NewRecorder()
	labels := make([]uint32, 4096)
	if a := testing.AllocsPerRun(100, func() { r.ObserveQuality(7, labels) }); a > 0 {
		t.Fatalf("ObserveQuality with no observer allocates %v per call, want 0", a)
	}
	if got := r.ObserveQuality(7, labels); got != nil {
		t.Fatalf("disabled path returned a record %+v", got)
	}
}
