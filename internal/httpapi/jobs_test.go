package httpapi

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"nulpa/internal/engine"
	"nulpa/internal/graph"
	"nulpa/internal/metrics"
)

// Test-only detectors for the failure paths: a detector that panics and a
// detector that runs slowly but honours cancellation. Registered once per
// test binary; the "test-" prefix keeps them out of the conformance list.
var registerTestDetectors = sync.OnceFunc(func() {
	engine.Register(panicDetector{})
	engine.Register(slowDetector{})
})

type panicDetector struct{}

func (panicDetector) Name() string { return "test-panic" }
func (panicDetector) Detect(g *graph.CSR, opt engine.Options) (*engine.Result, error) {
	panic("test-panic detector always panics")
}

type slowDetector struct{}

func (slowDetector) Name() string { return "test-slow" }
func (slowDetector) Detect(g *graph.CSR, opt engine.Options) (*engine.Result, error) {
	lr := engine.Loop(engine.LoopConfig{
		MaxIterations: 1000,
		Threshold:     0, // never converges; only cancel or the cap ends it
		Ctx:           opt.Context,
	}, func(_ context.Context, iter int) engine.IterOutcome {
		time.Sleep(10 * time.Millisecond)
		return engine.IterOutcome{}
	})
	if lr.Err != nil {
		return nil, lr.Err
	}
	labels := make([]uint32, g.NumVertices())
	res := engine.NewResult(labels)
	res.Iterations = lr.Iterations
	return res, nil
}

func postJob(t *testing.T, url, spec string) JobStatus {
	t.Helper()
	resp, err := http.Post(url+"/jobs", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d %s", resp.StatusCode, body)
	}
	var st JobStatus
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatalf("submit response not JSON: %v\n%s", err, body)
	}
	return st
}

func pollUntilTerminal(t *testing.T, url string, id int, timeout time.Duration) JobStatus {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		code, body := get(t, fmt.Sprintf("%s/jobs/%d", url, id))
		if code != 200 {
			t.Fatalf("get job = %d %s", code, body)
		}
		var st JobStatus
		if err := json.Unmarshal([]byte(body), &st); err != nil {
			t.Fatal(err)
		}
		if st.State.Terminal() {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %d stuck in state %q", id, st.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestJobPanicRecovered: a panicking detector fails its job, the
// scheduler's panic isolation counts it once, and the server keeps serving
// and the next job succeeds.
func TestJobPanicRecovered(t *testing.T) {
	registerTestDetectors()
	ts := newTestServer(t)
	panics := func() (n float64) {
		for _, mv := range metrics.Default().Snapshot() {
			if mv.Name == "sched_task_panics_total" {
				n = mv.Value
			}
		}
		return n
	}
	before := panics()
	st := postJob(t, ts.URL, `{"algo":"test-panic","graph":{"gen":"er","n":64,"deg":4,"seed":1}}`)
	st = pollUntilTerminal(t, ts.URL, st.ID, 10*time.Second)
	if st.State != JobFailed {
		t.Fatalf("panicking job state = %q, want failed", st.State)
	}
	if !strings.Contains(st.Error, "panic") {
		t.Errorf("job error %q does not mention the panic", st.Error)
	}
	if d := panics() - before; d != 1 {
		t.Errorf("sched_task_panics_total advanced by %v, want 1", d)
	}
	// The server survived: health and a real job still work.
	if code, _ := get(t, ts.URL+"/healthz"); code != 200 {
		t.Fatal("server dead after detector panic")
	}
	st2 := postJob(t, ts.URL, `{"algo":"flpa","graph":{"gen":"er","n":64,"deg":4,"seed":1}}`)
	if st2 = pollUntilTerminal(t, ts.URL, st2.ID, 10*time.Second); st2.State != JobDone {
		t.Fatalf("follow-up job state = %q (%s), want done", st2.State, st2.Error)
	}
}

// TestJobCancellation: DELETE on a running job turns it canceled within a
// couple of iterations; a second DELETE conflicts.
func TestJobCancellation(t *testing.T) {
	registerTestDetectors()
	ts := newTestServer(t)
	st := postJob(t, ts.URL, `{"algo":"test-slow","graph":{"gen":"er","n":64,"deg":4,"seed":1}}`)

	// Wait until it is actually running so the cancel exercises the live path.
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, body := get(t, fmt.Sprintf("%s/jobs/%d", ts.URL, st.ID))
		if strings.Contains(body, `"running"`) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never started: %s", body)
		}
		time.Sleep(2 * time.Millisecond)
	}

	req, _ := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/jobs/%d", ts.URL, st.ID), nil)
	start := time.Now()
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("DELETE running job = %d, want 202", resp.StatusCode)
	}
	st = pollUntilTerminal(t, ts.URL, st.ID, 5*time.Second)
	if st.State != JobCanceled {
		t.Fatalf("state after cancel = %q, want canceled", st.State)
	}
	// Acceptance: the cancel lands within ~2 iterations (10ms each) plus
	// scheduling slack, not after the 1000-iteration run completes.
	if took := time.Since(start); took > 2*time.Second {
		t.Errorf("cancellation took %v", took)
	}
	if !strings.Contains(st.Error, "canceled") {
		t.Errorf("canceled job error = %q", st.Error)
	}

	// Canceling a terminal job conflicts.
	req, _ = http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/jobs/%d", ts.URL, st.ID), nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("DELETE terminal job = %d, want 409", resp.StatusCode)
	}
}

func TestCancelJobNotFound(t *testing.T) {
	ts := newTestServer(t)
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/999", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("DELETE missing job = %d, want 404", resp.StatusCode)
	}
}

// TestJobEviction: the store keeps at most maxFinished terminal jobs,
// evicting oldest-first, and counts the evictions.
func TestJobEviction(t *testing.T) {
	srv := NewServer()
	srv.jobs.maxFinished = 3
	defer srv.Close()
	evictedBefore := mJobsEvicted.Value()
	var ids []int
	for i := 0; i < 5; i++ {
		st, err := srv.Submit(JobSpec{Algo: "flpa", Graph: GraphSpec{Gen: "er", N: 64, Deg: 4, Seed: 1}})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
		// Wait for this job to finish before submitting the next, so the
		// eviction order is deterministic.
		deadline := time.Now().Add(10 * time.Second)
		for {
			j, ok := srv.jobs.get(st.ID)
			if !ok {
				break // already evicted
			}
			j.mu.Lock()
			terminal := j.state.Terminal()
			j.mu.Unlock()
			if terminal {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("job %d never finished", st.ID)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	// Jobs 1 and 2 are evicted; 3, 4, 5 remain.
	for _, id := range ids[:2] {
		if _, ok := srv.jobs.get(id); ok {
			t.Errorf("job %d still in store, want evicted", id)
		}
	}
	for _, id := range ids[2:] {
		if _, ok := srv.jobs.get(id); !ok {
			t.Errorf("job %d evicted, want retained", id)
		}
	}
	if got := mJobsEvicted.Value() - evictedBefore; got != 2 {
		t.Errorf("evictions counter moved by %v, want 2", got)
	}
}

// TestCancelAll cancels every live job at once (the shutdown path).
func TestCancelAll(t *testing.T) {
	registerTestDetectors()
	srv := NewServer()
	defer srv.Close()
	var ids []int
	for i := 0; i < 3; i++ {
		st, err := srv.Submit(JobSpec{Algo: "test-slow", Graph: GraphSpec{Gen: "er", N: 64, Deg: 4, Seed: 1}})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	time.Sleep(20 * time.Millisecond)
	srv.CancelAll()
	deadline := time.Now().Add(5 * time.Second)
	for _, id := range ids {
		for {
			j, ok := srv.jobs.get(id)
			if !ok {
				t.Fatalf("job %d vanished", id)
			}
			st := j.status()
			if st.State.Terminal() {
				if st.State != JobCanceled {
					t.Errorf("job %d state = %q, want canceled", id, st.State)
				}
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("job %d still %q after CancelAll", id, st.State)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
}

func TestNewHTTPServerTimeouts(t *testing.T) {
	hs := NewHTTPServer(":0", http.NewServeMux())
	if hs.ReadHeaderTimeout <= 0 || hs.ReadTimeout <= 0 || hs.WriteTimeout <= 0 || hs.IdleTimeout <= 0 {
		t.Errorf("NewHTTPServer leaves a timeout unset: %+v", hs)
	}
}
