package telemetry

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"nulpa/internal/trace"
)

// goldenSpans builds a deterministic span tree that brackets the golden
// recorder's timeline: a job span containing a detect span containing one
// iteration span with a retry event.
func goldenSpans() []trace.SpanData {
	base := time.Date(2025, 1, 2, 3, 4, 5, 0, time.UTC)
	at := func(us int64) time.Time { return base.Add(time.Duration(us) * time.Microsecond) }
	return []trace.SpanData{
		// Completion order (innermost first), as the ring would hold them.
		{Trace: "00000000000000aa", Span: "0000000000000003", Parent: "0000000000000002",
			Name: "iteration", Start: at(5), DurationUS: 200,
			Attrs: map[string]any{"iter": int64(0), "deltaN": int64(500)},
			Events: []trace.EventData{
				{Name: "retry", OffsetUS: 150, Attrs: map[string]any{"attempt": int64(1)}},
			}},
		{Trace: "00000000000000aa", Span: "0000000000000002", Parent: "0000000000000001",
			Name: "detect", Start: at(2), DurationUS: 600,
			Attrs: map[string]any{"detector": "nulpa"}},
		{Trace: "00000000000000aa", Span: "0000000000000001",
			Name: "job", Start: at(0), DurationUS: 700,
			Attrs: map[string]any{"detector": "nulpa"}},
	}
}

// TestWriteUnifiedChromeTraceGolden pins the merged document: the profiler's
// two processes plus the span process, span slices sorted parents-first, and
// span events as thread-scoped instants. Regenerate deliberately with
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
	for _, ev := range doc.TraceEvents {
		switch {
		case ev.Ph == "X" && ev.Pid == devicePid:
			kernels++
		case ev.Ph == "X" && ev.Pid == tracePid:
			spans++
			spanNames = append(spanNames, ev.Name)
		case ev.Ph == "i" && ev.Pid == tracePid:
			instants++
		}
	}
	if kernels != 3 || spans != 3 || instants != 1 {
		t.Errorf("kernels = %d (want 3), spans = %d (want 3), instants = %d (want 1)", kernels, spans, instants)
	}
	// Containment order: job before detect before iteration.
	wantOrder := []string{"job", "detect", "iteration"}
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
