package telemetry

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"nulpa/internal/trace"
)

// recordLaunch records one launch of kernel over nSMs SMs.
func recordLaunch(r *Recorder, kernel string, nSMs int, blocksPerSM int64) {
	base := time.Now()
	l := Launch{Kernel: kernel, Grid: nSMs * int(blocksPerSM), BlockDim: 32,
		Start: base, End: base.Add(5 * time.Millisecond), SMs: make([]SMSpan, nSMs)}
	for sm := range l.SMs {
		start := base.Add(time.Duration(sm) * time.Millisecond)
		l.SMs[sm] = SMSpan{SM: sm, Start: start, End: start.Add(2 * time.Millisecond),
			Blocks: blocksPerSM, Phases: blocksPerSM * 3, Lanes: blocksPerSM * 3 * 32}
	}
	r.RecordLaunch(l)
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

// TestRecorderConcurrentLaunches: the devices of a sharded run record their
// launches in parallel, and every launch gets its own ID.
func TestRecorderConcurrentLaunches(t *testing.T) {
	r := NewRecorder()
	const devices = 16
	var wg sync.WaitGroup
	for d := 0; d < devices; d++ {
		wg.Add(1)
		go func(d int) {
			defer wg.Done()
			recordLaunch(r, "k", 2, int64(d+1))
		}(d)
	}
	wg.Wait()
	ids := map[int]bool{}
	var blocks int64
	for _, l := range r.Launches() {
		ids[l.ID] = true
		for _, s := range l.SMs {
			blocks += s.Blocks
		}
	}
	if len(ids) != devices {
		t.Errorf("distinct launch IDs = %d, want %d", len(ids), devices)
	}
	if blocks != 2*devices*(devices+1)/2 {
		t.Errorf("blocks = %d, want %d", blocks, 2*devices*(devices+1)/2)
	}
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

// TestWriteChromeTrace checks the document's rows: each device's SMs on
// their own rows, iterations drawn once (as spans), one counter triple per
// iteration record that still has its span, stamped at the span's end, and
// each span on the row of its shard.
func TestWriteChromeTrace(t *testing.T) {
	r := NewRecorder()
	recordLaunch(r, "thread-per-vertex", 3, 2)
	base := r.Launches()[0].Start
	l := Launch{Device: 1, Kernel: "thread-per-vertex", Grid: 2, BlockDim: 32,
		Start: base, End: base.Add(time.Millisecond), SMs: make([]SMSpan, 2)}
	for sm := range l.SMs {
		l.SMs[sm] = SMSpan{SM: sm, Start: base, End: base.Add(time.Millisecond), Blocks: 1}
	}
	r.RecordLaunch(l)
	// Iteration 0's span has left the ring; iteration 1's remains.
	r.RecordIteration(IterRecord{Iter: 0, Moves: 80, DeltaN: 80, Duration: time.Millisecond})
	r.RecordIteration(IterRecord{Iter: 1, Moves: 50, DeltaN: 50, Pruned: 5,
		HashProbes: 100, Duration: time.Millisecond})
	span := func(id, parent, name string, startUS, durUS int64, attrs map[string]any) trace.SpanData {
		return trace.SpanData{Trace: "00000000000000aa", Span: id, Parent: parent, Name: name,
			Start: base.Add(time.Duration(startUS) * time.Microsecond), DurationUS: float64(durUS), Attrs: attrs}
	}
	spans := []trace.SpanData{
		span("01", "", "run", 0, 9000, nil),
		span("02", "01", "iteration", 0, 8000, map[string]any{"iter": int64(1)}),
		span("03", "02", "shard-iteration", 0, 6000, map[string]any{"shard": int64(0)}),
		span("04", "02", "shard-iteration", 0, 5000, map[string]any{"shard": int64(1)}),
		span("05", "03", "kernel:thread-per-vertex", 0, 5000, nil),
		span("06", "04", "kernel:thread-per-vertex", 0, 1000, nil),
	}

	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, r, spans); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
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
	deviceSlices := map[int]int{}
	counters := map[string][]float64{}
	spanRows := map[string]int{}
	var iterSlices int
	for _, ev := range doc.TraceEvents {
		switch {
		case ev.Ph == "M" && ev.Name == "thread_name" && ev.Pid == devicePid:
			smRows[ev.Tid] = ev.Args["name"].(string)
		case ev.Ph == "X" && ev.Pid == devicePid:
			deviceSlices[ev.Tid]++
			if ev.Dur <= 0 {
				t.Errorf("kernel slice with dur %v", ev.Dur)
			}
		case ev.Ph == "X" && ev.Pid == tracePid:
			spanRows[ev.Args["span"].(string)] = ev.Tid
			if ev.Name == "iteration" {
				iterSlices++
			}
		case ev.Ph == "X":
			t.Errorf("X slice %q in process %d", ev.Name, ev.Pid)
		case ev.Ph == "C":
			counters[ev.Name] = append(counters[ev.Name], ev.Ts)
			if ev.Name == "labels" && ev.Args["deltaN"] != float64(50) {
				t.Errorf("labels counter %v, want iteration 1's deltaN 50", ev.Args)
			}
		}
	}
	if len(smRows) != 6 || smRows[0] != "device 0 SM 00" || smRows[5] != "device 1 SM 02" {
		t.Errorf("SM rows = %v, want 3 per device", smRows)
	}
	if want := map[int]int{0: 1, 1: 1, 2: 1, 3: 1, 4: 1}; !reflect.DeepEqual(deviceSlices, want) {
		t.Errorf("SM slices per row = %v, want %v", deviceSlices, want)
	}
	if iterSlices != 1 {
		t.Errorf("iteration slices = %d, want 1 (its span)", iterSlices)
	}
	for _, name := range []string{"labels", "pruning", "hashtable"} {
		if ts := counters[name]; len(ts) != 1 || ts[0] != 8000 {
			t.Errorf("counter %q stamped at %v, want once at the iteration span's end (8000)", name, ts)
		}
	}
	if want := map[string]int{"01": 0, "02": 0, "03": 1, "04": 2, "05": 1, "06": 2}; !reflect.DeepEqual(spanRows, want) {
		t.Errorf("span rows = %v, want %v", spanRows, want)
	}
}
