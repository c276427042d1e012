package telemetry

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

// record populates a recorder with one launch over nSMs SMs and returns it.
func recordLaunch(r *Recorder, kernel string, nSMs int, blocksPerSM int64) {
	base := time.Now()
	id := r.KernelBegin(kernel, nSMs*int(blocksPerSM), 32, nSMs)
	for sm := 0; sm < nSMs; sm++ {
		start := base.Add(time.Duration(sm) * time.Millisecond)
		r.SMSpan(id, sm, start, start.Add(2*time.Millisecond), blocksPerSM, blocksPerSM*3, blocksPerSM*3*32)
	}
	r.KernelEnd(id, base, base.Add(5*time.Millisecond))
}

func TestRecorderKernelAggregation(t *testing.T) {
	r := NewRecorder()
	recordLaunch(r, "alpha", 2, 4)
	recordLaunch(r, "alpha", 2, 4)
	recordLaunch(r, "beta", 2, 1)

	ls := r.Launches()
	if len(ls) != 3 {
		t.Fatalf("launches = %d", len(ls))
	}
	if ls[0].ID != 0 || ls[2].Kernel != "beta" {
		t.Errorf("launch order wrong: %+v", ls)
	}

	ks := r.KernelSummaries()
	if len(ks) != 2 {
		t.Fatalf("kernel summaries = %d", len(ks))
	}
	if ks[0].Kernel != "alpha" || ks[0].Launches != 2 {
		t.Errorf("alpha summary = %+v", ks[0])
	}
	if ks[0].Blocks != 16 { // 2 launches × 2 SMs × 4 blocks
		t.Errorf("alpha blocks = %d, want 16", ks[0].Blocks)
	}
	if ks[0].Phases != 48 {
		t.Errorf("alpha phases = %d, want 48", ks[0].Phases)
	}
	if ks[0].Total != 10*time.Millisecond {
		t.Errorf("alpha total = %v", ks[0].Total)
	}
	if ks[0].SMBusy != 8*time.Millisecond { // 4 spans × 2ms
		t.Errorf("alpha SM busy = %v", ks[0].SMBusy)
	}

	sms := r.SMUtilization()
	if len(sms) != 2 {
		t.Fatalf("SM utilization rows = %d", len(sms))
	}
	if sms[0].Blocks != 9 || sms[1].Blocks != 9 { // 4+4+1 per SM
		t.Errorf("per-SM blocks = %+v", sms)
	}
}

func TestRecorderConcurrentSMSpans(t *testing.T) {
	r := NewRecorder()
	const nSMs = 16
	id := r.KernelBegin("k", nSMs, 32, nSMs)
	var wg sync.WaitGroup
	for sm := 0; sm < nSMs; sm++ {
		wg.Add(1)
		go func(sm int) {
			defer wg.Done()
			now := time.Now()
			r.SMSpan(id, sm, now, now.Add(time.Millisecond), 1, 2, 64)
		}(sm)
	}
	wg.Wait()
	l := r.Launches()[0]
	for sm, s := range l.SMs {
		if s.SM != sm || s.Blocks != 1 {
			t.Errorf("SM %d span = %+v", sm, s)
		}
	}
	// Out-of-range SM reports must be dropped, not panic.
	r.SMSpan(id, nSMs+5, time.Now(), time.Now(), 1, 1, 1)
}

func TestFormatIters(t *testing.T) {
	out := FormatIters(nil)
	if !strings.Contains(out, "no per-iteration records") {
		t.Errorf("empty output = %q", out)
	}
	out = FormatIters([]IterRecord{
		{Iter: 0, PickLess: true, Moves: 123, Reverts: 7, DeltaN: 116,
			ThreadKernel: 1500 * time.Microsecond, HashProbes: 999, Duration: 3 * time.Millisecond},
	})
	for _, want := range []string{"iter", "moves", "deltaN", "123", "116", "999", "1.500ms", "*"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
}

func TestSummaryEmptyWithoutLaunches(t *testing.T) {
	r := NewRecorder()
	if s := r.Summary(); s != "" {
		t.Errorf("Summary on empty recorder = %q", s)
	}
	recordLaunch(r, "k", 1, 1)
	s := r.Summary()
	for _, want := range []string{"kernel", "launches", "SM busy", "blocks"} {
		if !strings.Contains(s, want) {
			t.Errorf("Summary missing %q:\n%s", want, s)
		}
	}
}

func TestWriteChromeTrace(t *testing.T) {
	r := NewRecorder()
	recordLaunch(r, "thread-per-vertex", 3, 2)
	r.RecordIteration(IterRecord{Iter: 0, Moves: 50, DeltaN: 50, Pruned: 5,
		HashProbes: 100, Duration: time.Millisecond})

	var buf bytes.Buffer
	if err := r.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Pid  int            `json:"pid"`
			Tid  int            `json:"tid"`
			Dur  float64        `json:"dur"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}

	smRows := map[int]string{}
	slices := 0
	counters := map[string]bool{}
	iterSlices := 0
	for _, ev := range doc.TraceEvents {
		switch {
		case ev.Ph == "M" && ev.Name == "thread_name" && ev.Pid == 0:
			smRows[ev.Tid] = ev.Args["name"].(string)
		case ev.Ph == "X" && ev.Pid == 0:
			slices++
			if ev.Dur <= 0 {
				t.Errorf("kernel slice with dur %v", ev.Dur)
			}
		case ev.Ph == "X" && ev.Pid == 1:
			iterSlices++
		case ev.Ph == "C":
			counters[ev.Name] = true
		}
	}
	if len(smRows) != 3 {
		t.Errorf("SM thread rows = %d, want 3 (%v)", len(smRows), smRows)
	}
	if smRows[0] != "SM 00" || smRows[2] != "SM 02" {
		t.Errorf("SM row names = %v", smRows)
	}
	if slices != 3 {
		t.Errorf("kernel slices = %d, want 3 (one per SM span)", slices)
	}
	if iterSlices != 1 {
		t.Errorf("iteration slices = %d, want 1", iterSlices)
	}
	for _, want := range []string{"labels", "pruning", "hashtable"} {
		if !counters[want] {
			t.Errorf("missing counter series %q (have %v)", want, counters)
		}
	}
}
