package telemetry

import (
	"testing"
	"time"
)

func TestWorkCountsLedger(t *testing.T) {
	w := WorkCounts{EdgeVisits: 10, LabelFlips: 2, HashProbes: 30, HashCollisions: 4, ActiveVertices: 5}
	sum := w.Add(w)
	if sum.EdgeVisits != 20 || sum.ActiveVertices != 10 {
		t.Errorf("Add = %+v, want field-wise doubling", sum)
	}
	if !(WorkCounts{}).IsZero() || w.IsZero() {
		t.Error("IsZero misclassifies")
	}
}

func TestTotalWorkProjectsTrace(t *testing.T) {
	recs := []IterRecord{
		{Moves: 3, EdgeVisits: 100, HashProbes: 40, ActiveVertices: 50},
		{Moves: 1, EdgeVisits: 60, HashCollisions: 2, ActiveVertices: 20},
	}
	w := TotalWork(recs)
	want := WorkCounts{EdgeVisits: 160, LabelFlips: 4, HashProbes: 40, HashCollisions: 2, ActiveVertices: 70}
	if w != want {
		t.Errorf("TotalWork = %+v, want %+v (Moves must project onto LabelFlips)", w, want)
	}
	if !TotalWork(nil).IsZero() {
		t.Error("TotalWork(nil) is not zero")
	}
}

func TestRecorderKernelWork(t *testing.T) {
	r := NewRecorder()
	now := time.Now()
	for i, k := range []string{"thread", "block", "thread"} {
		id := r.KernelBegin(k, 1, 1, 1)
		r.KernelWork(id, WorkCounts{EdgeVisits: int64(10 * (i + 1)), LabelFlips: 1, HashProbes: 2, ActiveVertices: 3})
		r.KernelEnd(id, now, now.Add(time.Millisecond))
	}
	// Out-of-range launches are dropped, not panicking.
	one := WorkCounts{EdgeVisits: 1, LabelFlips: 1, HashProbes: 1, HashCollisions: 1, ActiveVertices: 1}
	r.KernelWork(99, one)
	r.KernelWork(-1, one)

	byName := r.KernelWorkByName()
	if got := byName["thread"].EdgeVisits; got != 40 {
		t.Errorf("thread edge visits = %d, want 40 (launches 1 and 3 summed)", got)
	}
	if got := byName["block"].EdgeVisits; got != 20 {
		t.Errorf("block edge visits = %d, want 20", got)
	}
	if got := byName["thread"].ActiveVertices; got != 6 {
		t.Errorf("thread active vertices = %d, want 6", got)
	}
}
