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

// goldenRecorder builds a fully deterministic recorder: a fixed base time,
// two kernel launches across two SMs, and three iteration records stamped
// back to back from the base time by their durations instead of by the wall
// clock.
func goldenRecorder() *Recorder {
	base := time.Date(2025, 1, 2, 3, 4, 5, 0, time.UTC)
	r := &Recorder{base: base}
	at := func(us int64) time.Time { return base.Add(time.Duration(us) * time.Microsecond) }

	id := r.KernelBegin("lpa-thread", 64, 32, 2)
	r.SMSpan(id, 0, at(10), at(110), 32, 64, 2048)
	r.SMSpan(id, 1, at(12), at(95), 32, 64, 2048)
	r.KernelEnd(id, at(5), at(120))

	id = r.KernelBegin(`lpa-block "escaped\name"`, 8, 256, 2)
	r.SMSpan(id, 0, at(130), at(180), 4, 16, 1024)
	// SM 1 idle for this launch: zero span must be skipped in the export.
	r.KernelEnd(id, at(125), at(190))

	r.iters = []iterEvent{
		{at: at(200), rec: IterRecord{Iter: 0, Moves: 500, DeltaN: 500, Duration: 200 * time.Microsecond,
			HashProbes: 900, HashCollisions: 120}},
		{at: at(350), rec: IterRecord{Iter: 1, PickLess: true, Moves: 80, DeltaN: 80,
			Duration: 150 * time.Microsecond, Pruned: 300}},
		{at: at(450), rec: IterRecord{Iter: 2, CrossCheck: true, Moves: 20, Reverts: 5, DeltaN: 15,
			Duration: 100 * time.Microsecond}},
	}
	return r
}

// TestWriteChromeTraceGolden pins the exporter's exact output: event
// ordering (metadata, SM slices, iteration slices, counters), pid/tid
// mapping, microsecond timestamps, and JSON string escaping. Regenerate
// deliberately with `go test ./internal/telemetry -run Golden -update`.
func TestWriteChromeTraceGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenRecorder().WriteChromeTrace(&buf); err != nil {
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
	// JSON with the two-process layout.
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
	kernels, iters := 0, 0
	for _, ev := range doc.TraceEvents {
		switch {
		case ev.Ph == "X" && ev.Pid == devicePid:
			kernels++
		case ev.Ph == "X" && ev.Pid == runPid:
			iters++
		}
	}
	// 3 recorded SM spans (the idle SM's zero span is dropped), 3 iterations.
	if kernels != 3 || iters != 3 {
		t.Errorf("kernel slices = %d (want 3), iteration slices = %d (want 3)", kernels, iters)
	}
}
