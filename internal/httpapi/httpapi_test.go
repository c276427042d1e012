package httpapi

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"nulpa/internal/engine"
	_ "nulpa/internal/engine/all"
	"nulpa/internal/metrics"
	"nulpa/internal/quality"
)

func newTestServer(t *testing.T) *httptest.Server {
	ts, _ := newTestServerOpts(t)
	return ts
}

// newTestServerOpts builds a server with explicit options and returns both
// the HTTP front and the Server (for scheduler stats and drain control).
// Cleanup closes the listener first, then stops the scheduler pool.
func newTestServerOpts(t *testing.T, opts ...Option) (*httptest.Server, *Server) {
	t.Helper()
	srv := NewServer(opts...)
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, srv
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	return resp.StatusCode, readAll(t, resp)
}

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	var b strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		b.Write(buf[:n])
		if err != nil {
			break
		}
	}
	return b.String()
}

func TestHealthzAndAlgos(t *testing.T) {
	ts := newTestServer(t)
	if code, body := get(t, ts.URL+"/healthz"); code != 200 || body != "ok\n" {
		t.Fatalf("healthz = %d %q", code, body)
	}
	code, body := get(t, ts.URL+"/algos")
	if code != 200 || !strings.Contains(body, `"nulpa"`) || !strings.Contains(body, `"louvain"`) {
		t.Fatalf("algos = %d %q", code, body)
	}
}

func TestJobLifecycleAndMetrics(t *testing.T) {
	ts := newTestServer(t)

	spec := `{"algo":"nulpa","graph":{"gen":"planted","n":400,"deg":8,"seed":3},"workers":2}`
	resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(spec))
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
	if st.ID == 0 {
		t.Fatalf("submit returned no job id: %s", body)
	}

	// Poll until terminal.
	deadline := time.Now().Add(30 * time.Second)
	for {
		code, body := get(t, fmt.Sprintf("%s/jobs/%d", ts.URL, st.ID))
		if code != 200 {
			t.Fatalf("get job = %d %s", code, body)
		}
		if err := json.Unmarshal([]byte(body), &st); err != nil {
			t.Fatal(err)
		}
		if st.State == JobDone || st.State == JobFailed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in state %q", st.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if st.State != JobDone {
		t.Fatalf("job failed: %s", st.Error)
	}
	if st.Iterations == 0 || st.Communities == 0 {
		t.Fatalf("done job carries no results: %+v", st)
	}
	if st.Modularity <= 0 {
		t.Errorf("modularity = %g on a planted graph, want > 0", st.Modularity)
	}

	// The acceptance check: a scrape after (or during) a ν-LPA job exposes
	// the engine, device, and hashtable series in Prometheus text format.
	code, metricsText := get(t, ts.URL+"/metrics")
	if code != 200 {
		t.Fatalf("/metrics = %d", code)
	}
	for _, want := range []string{
		"# TYPE engine_iterations_total counter",
		`engine_runs_total{detector="nulpa"}`,
		"# TYPE simt_sm_occupancy gauge",
		"simt_kernel_launches_total{",
		"simt_cas_retries_total",
		"# TYPE hashtable_probe_length histogram",
		`hashtable_probe_length_bucket{le="1"}`,
		`httpapi_jobs_finished_total{state="done"}`,
		"httpapi_uptime_seconds",
		"go_goroutines",
	} {
		if !strings.Contains(metricsText, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// /metrics is the registry's only exposition; there is no JSON route.
	if code, _ := get(t, ts.URL+"/debug/vars"); code != http.StatusNotFound {
		t.Errorf("/debug/vars = %d, want 404", code)
	}

	// /jobs lists the job.
	_, listText := get(t, ts.URL+"/jobs")
	if !strings.Contains(listText, `"planted(n=400,deg=8,seed=3)"`) {
		t.Errorf("/jobs does not list the job: %s", listText)
	}
}

func TestSubmitValidation(t *testing.T) {
	ts := newTestServer(t)
	for _, body := range []string{
		`{"algo":"no-such-algo","graph":{"gen":"er","n":100}}`,
		`{"algo":"flpa","graph":{}}`,
		`{"algo":"flpa","graph":{"gen":"er"},"bogus":1}`,
		`not json`,
	} {
		resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("submit %q = %d, want 400", body, resp.StatusCode)
		}
	}
}

// TestSubmitRejectsGraphPath: POST /jobs never opens a file named by the
// client; the spec is refused with a 400 before a job exists.
func TestSubmitRejectsGraphPath(t *testing.T) {
	ts := newTestServer(t)
	resp, err := http.Post(ts.URL+"/jobs", "application/json",
		strings.NewReader(`{"algo":"flpa","graph":{"path":"/etc/hostname"}}`))
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(body, "graph.path") {
		t.Errorf("path submit = %d %s, want 400 naming graph.path", resp.StatusCode, body)
	}
	if _, list := get(t, ts.URL+"/jobs"); strings.Contains(list, "hostname") {
		t.Errorf("refused submission left a job behind: %s", list)
	}
}

// TestShardedJobFeedsDeviceMetrics: a nulpa-sharded job's devices report
// through the job's profiler, so its launches and work reach /metrics like
// a single-device job's.
func TestShardedJobFeedsDeviceMetrics(t *testing.T) {
	ts := newTestServer(t)
	read := func() (launches, visits float64) {
		for _, mv := range metrics.Default().Snapshot() {
			if mv.Label != "thread-per-vertex" {
				continue
			}
			switch mv.Name {
			case "simt_kernel_launches_total":
				launches = mv.Value
			case "nulpa_work_edge_visits_total":
				visits = mv.Value
			}
		}
		return launches, visits
	}
	launches, visits := read()
	st := submitAndWait(t, ts.URL, `{"algo":"nulpa-sharded","graph":{"gen":"planted","n":400,"deg":8,"seed":3},"workers":1}`)
	if st.State != JobDone {
		t.Fatalf("sharded job ended %s: %s", st.State, st.Error)
	}
	l, v := read()
	if l <= launches {
		t.Errorf(`simt_kernel_launches_total{kernel="thread-per-vertex"} stayed at %g`, l)
	}
	if v <= visits {
		t.Errorf(`nulpa_work_edge_visits_total{kernel="thread-per-vertex"} stayed at %g`, v)
	}
}

func TestSubmitBodyTooLarge(t *testing.T) {
	ts := newTestServer(t)
	body := `{"algo":"` + strings.Repeat("a", maxJobBodyBytes) + `","graph":{"gen":"er","n":100}}`
	resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversize submit = %d, want 413", resp.StatusCode)
	}
}

// TestSubmitAdmissionBounds: a job asking for more vertices, a higher degree
// or more SM goroutines than the server admits is refused with a 400 before
// anything is built; a job at the bounds is admitted.
func TestSubmitAdmissionBounds(t *testing.T) {
	ts := newTestServer(t)
	for _, body := range []string{
		`{"algo":"flpa","graph":{"gen":"er","n":8388609}}`,
		`{"algo":"flpa","graph":{"gen":"er","n":100,"deg":1025}}`,
		`{"algo":"nulpa","graph":{"gen":"er","n":100},"workers":257}`,
	} {
		resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", body, resp.StatusCode)
		}
	}
	st := submitAndWait(t, ts.URL, `{"algo":"nulpa","graph":{"gen":"er","n":64,"deg":8},"workers":256}`)
	if st.State != JobDone {
		t.Errorf("job at the workers bound ended %s: %s", st.State, st.Error)
	}
}

func TestQualityJobMatchesMetrics(t *testing.T) {
	// A quality-enabled job's final summary and the per-detector gauge on
	// /metrics are two views of one number.
	ts := newTestServer(t)
	st := submitAndWait(t, ts.URL,
		`{"algo":"nulpa","graph":{"gen":"planted","n":2000,"deg":8,"seed":7},"quality":true}`)
	if st.State != JobDone {
		t.Fatalf("job ended %s: %s", st.State, st.Error)
	}
	if st.Quality == nil {
		t.Fatal("job status carries no quality summary")
	}
	_, text := get(t, ts.URL+"/metrics")
	const gauge = `engine_quality_run_modularity{detector="nulpa"} `
	found := false
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, gauge) {
			continue
		}
		var got float64
		if _, err := fmt.Sscan(strings.TrimPrefix(line, gauge), &got); err != nil {
			t.Fatalf("unparseable gauge line %q: %v", line, err)
		}
		if d := got - st.Quality.Modularity; d > 1e-6 || d < -1e-6 {
			t.Errorf("gauge %g vs job status %g", got, st.Quality.Modularity)
		}
		found = true
	}
	if !found {
		t.Errorf("/metrics does not expose %s", strings.TrimSpace(gauge))
	}
	if !strings.Contains(text, "\nengine_quality_recomputes_total") {
		t.Error("/metrics does not expose engine_quality_recomputes_total")
	}
}

func TestJobNotFound(t *testing.T) {
	ts := newTestServer(t)
	if code, _ := get(t, ts.URL+"/jobs/999"); code != http.StatusNotFound {
		t.Errorf("missing job = %d, want 404", code)
	}
	if code, _ := get(t, ts.URL+"/jobs/abc"); code != http.StatusBadRequest {
		t.Errorf("bad id = %d, want 400", code)
	}
}

func TestGraphSpecBuild(t *testing.T) {
	for _, gen := range []string{"web", "social", "rmat", "road", "kmer", "er", "planted", "rgg"} {
		g, err := GraphSpec{Gen: gen, N: 256, Deg: 4, Seed: 1}.Build()
		if err != nil {
			t.Fatalf("%s: %v", gen, err)
		}
		if g.NumVertices() == 0 {
			t.Errorf("%s: empty graph", gen)
		}
	}
	if _, err := (GraphSpec{}).Build(); err == nil {
		t.Error("empty spec did not error")
	}
	if _, err := (GraphSpec{Gen: "bogus"}).Build(); err == nil {
		t.Error("unknown generator did not error")
	}
}

// TestGraphSpecSocialHasCommunities: "social" is the LFR-style generator
// with planted communities, so a label-propagation baseline finds them. The
// same spec under "rmat" has no community structure and gives Q ≈ 0.001.
func TestGraphSpecSocialHasCommunities(t *testing.T) {
	g, err := GraphSpec{Gen: "social", N: 2000, Deg: 8, Seed: 1}.Build()
	if err != nil {
		t.Fatal(err)
	}
	det, err := engine.MustGet("flpa")
	if err != nil {
		t.Fatal(err)
	}
	res, err := det.Detect(g, engine.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if q := quality.Modularity(g, res.Labels); q < 0.3 {
		t.Errorf("flpa on social: Q = %.4f, want >= 0.3", q)
	}
}
