package telemetry

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"nulpa/internal/trace"
)

// goldenSpans builds a deterministic span tree that brackets the golden
// recorder's timeline: a job span containing a detect span containing two
// iteration spans, the first with a retry event. They are iterations 1 and
// 2: iteration 0's span has left the ring, so its record has no counters.
func goldenSpans() []trace.SpanData {
	base := time.Date(2025, 1, 2, 3, 4, 5, 0, time.UTC)
	at := func(us int64) time.Time { return base.Add(time.Duration(us) * time.Microsecond) }
	return []trace.SpanData{
		// Completion order (innermost first), as the ring would hold them.
		{Trace: "00000000000000aa", Span: "0000000000000003", Parent: "0000000000000002",
			Name: "iteration", Start: at(5), DurationUS: 200,
			Attrs: map[string]any{"iter": int64(1)},
			Events: []trace.EventData{
				{Name: "retry", OffsetUS: 150, Attrs: map[string]any{"attempt": int64(1)}},
			}},
		{Trace: "00000000000000aa", Span: "0000000000000004", Parent: "0000000000000002",
			Name: "iteration", Start: at(210), DurationUS: 100,
			Attrs: map[string]any{"iter": int64(2)}},
		{Trace: "00000000000000aa", Span: "0000000000000002", Parent: "0000000000000001",
			Name: "detect", Start: at(2), DurationUS: 600,
			Attrs: map[string]any{"detector": "nulpa"}},
		{Trace: "00000000000000aa", Span: "0000000000000001",
			Name: "job", Start: at(0), DurationUS: 700,
			Attrs: map[string]any{"detector": "nulpa"}},
	}
}

// TestWriteUnifiedChromeTraceGolden pins the merged document: the device
// process, the counter process (one triple per iteration record that has
// its span, stamped at the span's end), and the span process with slices
// sorted parents-first and span events as thread-scoped instants. Regenerate deliberately with
// `go test ./internal/telemetry -run UnifiedChromeTraceGolden -update`.
func TestWriteUnifiedChromeTraceGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, goldenRecorder(), goldenSpans()); err != nil {
		t.Fatal(err)
	}
	got := buf.Bytes()

	golden := filepath.Join("testdata", "unified_trace_golden.json")
	if *updateGolden {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("unified trace drifted from golden file.\ngot:\n%s\nwant:\n%s\n(run with -update if the change is intentional)", got, want)
	}

	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Pid  int     `json:"pid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(got, &doc); err != nil {
		t.Fatalf("unified trace is not valid JSON: %v", err)
	}
	kernels, spans, instants := 0, 0, 0
	var spanNames []string
	var counterTs []float64
	for _, ev := range doc.TraceEvents {
		switch {
		case ev.Ph == "X" && ev.Pid == devicePid:
			kernels++
		case ev.Ph == "X" && ev.Pid == tracePid:
			spans++
			spanNames = append(spanNames, ev.Name)
		case ev.Ph == "i" && ev.Pid == tracePid:
			instants++
		case ev.Ph == "C" && ev.Name == "labels":
			counterTs = append(counterTs, ev.Ts)
		}
	}
	if kernels != 3 || spans != 4 || instants != 1 {
		t.Errorf("kernels = %d (want 3), spans = %d (want 4), instants = %d (want 1)", kernels, spans, instants)
	}
	// Iterations 1 and 2 end at 205 and 310 µs; iteration 0 has no span.
	if !reflect.DeepEqual(counterTs, []float64{205, 310}) {
		t.Errorf("labels counters at %v, want [205 310]", counterTs)
	}
	// Containment order: job before detect before iteration.
	wantOrder := []string{"job", "detect", "iteration", "iteration"}
	for i, name := range wantOrder {
		if i >= len(spanNames) || spanNames[i] != name {
			t.Errorf("span slice order = %v, want %v", spanNames, wantOrder)
			break
		}
	}
}

// TestWriteUnifiedChromeTraceNoRecorder covers the spans-only path (a job
// that never reached the device still exports).
func TestWriteUnifiedChromeTraceNoRecorder(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, nil, goldenSpans()); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph  string  `json:"ph"`
			Ts  float64 `json:"ts"`
			Pid int     `json:"pid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	for _, ev := range doc.TraceEvents {
		if ev.Pid != tracePid {
			t.Fatalf("unexpected pid %d in spans-only export", ev.Pid)
		}
		if ev.Ts < 0 {
			t.Fatalf("negative timestamp %v", ev.Ts)
		}
	}
}
