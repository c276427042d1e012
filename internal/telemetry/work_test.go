package telemetry

import (
	"reflect"
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
		r.RecordLaunch(Launch{Kernel: k, Grid: 1, BlockDim: 1, Start: now, End: now.Add(time.Millisecond),
			Work: WorkCounts{EdgeVisits: int64(10 * (i + 1)), LabelFlips: 1, HashProbes: 2, ActiveVertices: 3}})
	}

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

// TestSumAddsEveryCounter walks IterRecord with reflection: every integer
// counter (durations included) except Iter and Duration must be summed by
// Sum and every bool flag ORed, so a counter added to the record cannot be
// silently dropped from a run's totals.
func TestSumAddsEveryCounter(t *testing.T) {
	var rec IterRecord
	v := reflect.ValueOf(&rec).Elem()
	for i := 0; i < v.NumField(); i++ {
		switch v.Field(i).Kind() {
		case reflect.Int, reflect.Int64:
			v.Field(i).SetInt(int64(i + 1))
		case reflect.Bool:
			v.Field(i).SetBool(true)
		}
	}
	sum := reflect.ValueOf(Sum([]IterRecord{rec, rec}))
	for i := 0; i < v.NumField(); i++ {
		name := v.Type().Field(i).Name
		switch v.Field(i).Kind() {
		case reflect.Int, reflect.Int64:
			want := 2 * int64(i+1)
			if name == "Iter" || name == "Duration" {
				want = 0 // one iteration's, not a count: Sum starts from zero
			}
			if got := sum.Field(i).Int(); got != want {
				t.Errorf("Sum %s = %d, want %d", name, got, want)
			}
		case reflect.Bool:
			if !sum.Field(i).Bool() {
				t.Errorf("Sum dropped flag %s", name)
			}
		}
	}
}
