package telemetry

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"
)

var updateGolden = flag.Bool("update", false, "rewrite the chrome trace golden file")

// goldenRecorder builds a fully deterministic recorder: two kernel
// launches at fixed times, on two SMs of device 0 and one SM of device 1,
// and three iteration records.
func goldenRecorder() *Recorder {
	base := time.Date(2025, 1, 2, 3, 4, 5, 0, time.UTC)
	at := func(us int64) time.Time { return base.Add(time.Duration(us) * time.Microsecond) }
	r := NewRecorder()
	r.RecordLaunch(Launch{Kernel: "lpa-thread", Grid: 64, BlockDim: 32, Start: at(5), End: at(120),
		SMs: []SMSpan{
			{SM: 0, Start: at(10), End: at(110), Blocks: 32, Phases: 64, Lanes: 2048},
			{SM: 1, Start: at(12), End: at(95), Blocks: 32, Phases: 64, Lanes: 2048},
		}})
	r.RecordLaunch(Launch{Device: 1, Kernel: `lpa-block "escaped\name"`, Grid: 8, BlockDim: 256,
		Start: at(125), End: at(190),
		SMs: []SMSpan{{SM: 0, Start: at(130), End: at(180), Blocks: 4, Phases: 16, Lanes: 1024}}})
	r.RecordIteration(IterRecord{Iter: 0, Moves: 500, DeltaN: 500, Duration: 200 * time.Microsecond,
		HashProbes: 900, HashCollisions: 120})
	r.RecordIteration(IterRecord{Iter: 1, PickLess: true, Moves: 80, DeltaN: 80,
		Duration: 150 * time.Microsecond, Pruned: 300})
	r.RecordIteration(IterRecord{Iter: 2, CrossCheck: true, Moves: 20, Reverts: 5, DeltaN: 15,
		Duration: 100 * time.Microsecond})
	return r
}

// TestWriteChromeTraceGolden pins the exporter's exact output without
// spans: metadata and SM slices only (iterations and their counters need
// their spans), per-device SM rows, microsecond timestamps, and JSON string
// escaping. Regenerate
// deliberately with `go test ./internal/telemetry -run Golden -update`.
func TestWriteChromeTraceGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, goldenRecorder(), nil); err != nil {
		t.Fatal(err)
	}
	got := buf.Bytes()

	golden := filepath.Join("testdata", "chrome_trace_golden.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("chrome trace drifted from golden file.\ngot:\n%s\nwant:\n%s\n(run with -update if the change is intentional)", got, want)
	}

	// Sanity on top of the byte comparison: the document must stay valid
	// JSON.
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Pid  int     `json:"pid"`
			Tid  int     `json:"tid"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(got, &doc); err != nil {
		t.Fatalf("golden trace is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	kernels, others := 0, 0
	for _, ev := range doc.TraceEvents {
		switch {
		case ev.Ph == "X" && ev.Pid == devicePid:
			kernels++
		case ev.Ph != "M":
			others++
		}
	}
	// 3 recorded SM spans; with no spans there is nothing else to draw.
	if kernels != 3 || others != 0 {
		t.Errorf("kernel slices = %d (want 3), other events = %d (want 0)", kernels, others)
	}
}
