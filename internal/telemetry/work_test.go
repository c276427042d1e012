package telemetry

import (
	"reflect"
	"strings"
	"testing"
	"time"
)

// TestRecorderKernelWork checks the per-kernel view of the launch records:
// KernelSummaries sums each kernel's launches, and Summary's flips column is
// Moves + Reverts, since a Cross-Check revert flips a label back.
func TestRecorderKernelWork(t *testing.T) {
	r := NewRecorder()
	now := time.Now()
	for i, k := range []string{"thread", "cross", "thread"} {
		w := IterRecord{EdgeVisits: int64(10 * (i + 1)), Moves: 1, HashProbes: 2, ActiveVertices: 3}
		if k == "cross" {
			w = IterRecord{Reverts: 5}
		}
		r.RecordLaunch(Launch{Kernel: k, Grid: 1, BlockDim: 1, Start: now, End: now.Add(time.Millisecond), Work: w})
	}

	byName := map[string]IterRecord{}
	for _, s := range r.KernelSummaries() {
		byName[s.Kernel] = s.Work
	}
	if got := byName["thread"]; got.EdgeVisits != 40 || got.ActiveVertices != 6 || got.Moves != 2 {
		t.Errorf("thread work = %+v, want launches 1 and 3 summed (40 edges, 6 active, 2 moves)", got)
	}
	if got := byName["cross"].Reverts; got != 5 {
		t.Errorf("cross reverts = %d, want 5", got)
	}

	// Columns: kernel launches total busy blocks phases edges flips probes active.
	flips := map[string]string{}
	for _, line := range strings.Split(r.Summary(), "\n")[1:] {
		f := strings.Fields(line)
		if len(f) != 10 {
			break
		}
		flips[f[0]] = f[7]
	}
	if flips["thread"] != "2" || flips["cross"] != "5" {
		t.Errorf("Summary flips column = %v, want thread 2 (moves), cross 5 (reverts)", flips)
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
