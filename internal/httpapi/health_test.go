package httpapi

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"nulpa/internal/engine"
	"nulpa/internal/health"
	"nulpa/internal/nulpa"
	"nulpa/internal/sched"
)

func TestReadyzSplit(t *testing.T) {
	srv := NewServer()
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// The engine registry is populated (the test package imports
	// engine/all), so a fresh server is ready — and alive.
	if code, body := get(t, ts.URL+"/readyz"); code != 200 || body != "ready\n" {
		t.Fatalf("readyz = %d %q", code, body)
	}
	if code, body := get(t, ts.URL+"/healthz"); code != 200 || body != "ok\n" {
		t.Fatalf("healthz = %d %q", code, body)
	}

	// An empty registry (simulated — the real one is process-global) fails
	// readiness but not liveness.
	srv.readyCheck = func() bool { return false }
	if code, body := get(t, ts.URL+"/readyz"); code != 503 || !strings.Contains(body, "no detectors") {
		t.Fatalf("readyz with empty registry = %d %q", code, body)
	}
	if code, _ := get(t, ts.URL+"/healthz"); code != 200 {
		t.Fatalf("healthz must stay 200 when not ready")
	}
	srv.readyCheck = nil

	// Drain wins over everything: once shutdown begins, readiness fails for
	// good while liveness keeps answering.
	srv.BeginDrain()
	if code, body := get(t, ts.URL+"/readyz"); code != 503 || body != "draining\n" {
		t.Fatalf("readyz while draining = %d %q", code, body)
	}
	if code, _ := get(t, ts.URL+"/healthz"); code != 200 {
		t.Fatalf("healthz must stay 200 while draining")
	}
	if !srv.draining.Load() {
		t.Fatal("draining = false after BeginDrain")
	}
}

// submitAndWait posts a job and polls it to a terminal state.
func submitAndWait(t *testing.T, base, spec string) JobStatus {
	t.Helper()
	resp, err := http.Post(base+"/jobs", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d %s", resp.StatusCode, body)
	}
	var st JobStatus
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		_, body := get(t, fmt.Sprintf("%s/jobs/%d", base, st.ID))
		if err := json.Unmarshal([]byte(body), &st); err != nil {
			t.Fatal(err)
		}
		if st.State.Terminal() {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %d stuck in %s", st.ID, st.State)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestLiveStreamAndFlightEndpoint(t *testing.T) {
	ts := newTestServer(t)
	st := submitAndWait(t, ts.URL,
		`{"algo":"nulpa","graph":{"gen":"planted","n":400,"deg":8,"seed":3},"workers":2}`)
	if st.State != JobDone {
		t.Fatalf("job = %+v", st)
	}
	if st.Iterations == 0 {
		t.Fatal("job reports zero iterations")
	}

	// The SSE stream must deliver >= 1 frame per iteration. Connecting
	// after the run finished still replays every retained frame (the
	// subscription snapshot), then ends.
	resp, err := http.Get(fmt.Sprintf("%s/debug/live/%d", ts.URL, st.ID))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 || resp.Header.Get("Content-Type") != "text/event-stream" {
		t.Fatalf("live = %d %q", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	var frames int
	var gotEnd bool
	event := ""
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data := strings.TrimPrefix(line, "data: ")
			switch event {
			case "frame":
				var f health.Frame
				if err := json.Unmarshal([]byte(data), &f); err != nil {
					t.Fatalf("frame payload: %v\n%s", err, data)
				}
				if f.State == "" {
					t.Fatalf("frame %d missing state", f.Iter)
				}
				frames++
			case "end":
				var end JobStatus
				if err := json.Unmarshal([]byte(data), &end); err != nil {
					t.Fatalf("end payload: %v\n%s", err, data)
				}
				if end.State != JobDone {
					t.Fatalf("end state = %s", end.State)
				}
				gotEnd = true
			}
		}
	}
	if !gotEnd {
		t.Fatal("stream ended without an end event")
	}
	if frames < st.Iterations {
		t.Fatalf("streamed %d frames for %d iterations, want >= 1 per iteration", frames, st.Iterations)
	}

	// The flight endpoint serves a fresh capture for a job that finished
	// cleanly (no auto-capture happened).
	code, body := get(t, fmt.Sprintf("%s/jobs/%d/flight", ts.URL, st.ID))
	if code != 200 {
		t.Fatalf("flight = %d %s", code, body)
	}
	b, err := health.DecodeFlight([]byte(strings.TrimSpace(body)))
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	if b.Reason != "request" {
		t.Fatalf("clean job flight reason = %q, want request", b.Reason)
	}
	if len(b.Frames) == 0 || b.Iterations != st.Iterations {
		t.Fatalf("flight frames = %d, iterations = %d (job ran %d)", len(b.Frames), b.Iterations, st.Iterations)
	}
	if b.Trace != st.Trace {
		t.Fatalf("flight trace = %q, job trace = %q", b.Trace, st.Trace)
	}
}

func TestFlightAutoCaptureOnFailure(t *testing.T) {
	ts := newTestServer(t)
	// An unknown generator fails the job at graph build, before any
	// iteration runs; the auto-capture still produces a valid (frameless)
	// bundle with the fault on its event track.
	st := submitAndWait(t, ts.URL, `{"algo":"nulpa","graph":{"gen":"bogus"}}`)
	if st.State != JobFailed {
		t.Fatalf("job = %+v", st)
	}
	code, body := get(t, fmt.Sprintf("%s/jobs/%d/flight", ts.URL, st.ID))
	if code != 200 {
		t.Fatalf("flight = %d %s", code, body)
	}
	b, err := health.DecodeFlight([]byte(strings.TrimSpace(body)))
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	if b.Reason != "fault" {
		t.Fatalf("failed job flight reason = %q, want fault", b.Reason)
	}
	found := false
	for _, e := range b.Events {
		if e.Name == "fault" {
			found = true
		}
	}
	if !found {
		t.Fatalf("fault event missing from auto-captured bundle: %+v", b.Events)
	}
}

// TestJobFaultsApplyToEveryNuLPADetector: a job's fault schedule reaches
// all three ν-LPA detectors — with every launch failing, each run degrades
// to the sequential fallback and auto-captures a "degraded" flight bundle —
// and submit refuses a schedule for any other detector with 400, as the CLI
// refuses -faults.
func TestJobFaultsApplyToEveryNuLPADetector(t *testing.T) {
	ts := newTestServer(t)
	const faulted = `{"algo":%q,"graph":{"gen":"planted","n":300,"deg":8,"seed":3},"faults":"kernel=1,seed=3"}`
	for _, algo := range []string{"nulpa", "nulpa-direct", "nulpa-sharded"} {
		st := submitAndWait(t, ts.URL, fmt.Sprintf(faulted, algo))
		if st.State != JobDone {
			t.Fatalf("%s: job = %+v", algo, st)
		}
		code, body := get(t, fmt.Sprintf("%s/jobs/%d/flight", ts.URL, st.ID))
		if code != 200 {
			t.Fatalf("%s: flight = %d %s", algo, code, body)
		}
		b, err := health.DecodeFlight([]byte(strings.TrimSpace(body)))
		if err != nil {
			t.Fatal(err)
		}
		if err := b.Validate(); err != nil {
			t.Fatal(err)
		}
		if b.Reason != "degraded" {
			t.Errorf("%s: flight reason = %q, want degraded (the fault schedule never reached the run)", algo, b.Reason)
		}
	}
	resp, body := postJobRaw(t, ts.URL, fmt.Sprintf(faulted, "flpa"), nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("flpa with faults: submit = %d %s, want 400", resp.StatusCode, body)
	}
}

func TestLiveStreamNotFound(t *testing.T) {
	ts := newTestServer(t)
	if code, _ := get(t, ts.URL+"/debug/live/999"); code != 404 {
		t.Fatalf("live for missing job = %d", code)
	}
	if code, _ := get(t, ts.URL+"/jobs/999/flight"); code != 404 {
		t.Fatalf("flight for missing job = %d", code)
	}
}

// TestRecordOutcome pins the one outcome classifier the job plane and the
// CLI share: the capture reason of each run outcome, and the event it
// leaves on the monitor.
func TestRecordOutcome(t *testing.T) {
	degraded := &engine.Result{Extra: &nulpa.Result{Degraded: true}}
	for _, c := range []struct {
		name   string
		err    error
		res    *engine.Result
		reason string
		event  string
	}{
		{"clean", nil, &engine.Result{Extra: &nulpa.Result{}}, "", ""},
		{"no result", nil, nil, "", ""},
		{"degraded", nil, degraded, "degraded", "fallback:direct"},
		{"deadline", fmt.Errorf("run: %w", engine.ErrDeadline), nil, "deadline", "deadline"},
		{"canceled", fmt.Errorf("run: %w", engine.ErrCanceled), nil, "", ""},
		{"stopped", sched.ErrStopped, nil, "", ""},
		{"fault", errors.New("launch failed"), nil, "fault", "fault"},
	} {
		t.Run(c.name, func(t *testing.T) {
			mon := health.New(health.Config{})
			defer mon.Close()
			if got := RecordOutcome(mon, c.err, c.res); got != c.reason {
				t.Errorf("reason %q, want %q", got, c.reason)
			}
			var events []string
			for _, e := range mon.Flight("request").Events {
				events = append(events, e.Name)
			}
			var want []string
			if c.event != "" {
				want = []string{c.event}
			}
			if !slices.Equal(events, want) {
				t.Errorf("events %v, want %v", events, want)
			}
		})
	}
}
