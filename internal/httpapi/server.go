package httpapi

import (
	"encoding/json"
	"errors"
	"log/slog"
	"math"
	"net/http"
	"net/http/pprof"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"nulpa/internal/engine"
	"nulpa/internal/metrics"
	"nulpa/internal/sched"
	"nulpa/internal/telemetry"
	"nulpa/internal/trace"
)

// HTTP-plane metrics, plus the process gauges every scrape wants alongside
// the application series.
var (
	mRequests = metrics.NewCounterVec("httpapi_requests_total",
		"HTTP requests served, per route.", "route")
	mRequestSeconds = metrics.NewHistogram("httpapi_request_seconds",
		"Wall time of one HTTP request.", metrics.ExpBuckets(1e-5, 4, 12))
)

var processStart = time.Now()

func init() {
	metrics.NewGaugeFunc("httpapi_uptime_seconds",
		"Seconds since the process started.",
		func() float64 { return time.Since(processStart).Seconds() })
	metrics.NewGaugeFunc("go_goroutines",
		"Live goroutines in the process.",
		func() float64 { return float64(runtime.NumGoroutine()) })
	metrics.NewGaugeFunc("go_heap_alloc_bytes",
		"Heap bytes currently allocated.",
		func() float64 {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			return float64(ms.HeapAlloc)
		})
}

// Server runs detections as jobs and serves the metrics plane. Create one
// with NewServer and mount Handler on an http.Server. Job execution goes
// through a device-pool scheduler (internal/sched): a bounded admission
// queue feeds a fixed worker pool, and overload sheds submissions with
// 429/503 + Retry-After instead of spawning unbounded goroutines. Close
// releases the pool.
type Server struct {
	jobs  *jobStore
	sched *sched.Scheduler
	start time.Time
	mux   *http.ServeMux
	// draining flips /readyz to 503 once graceful shutdown begins.
	draining atomic.Bool
	// readyCheck overrides the readiness probe (tests); nil means "engine
	// registry non-empty".
	readyCheck func() bool
	// construction-time knobs collected by Options before the scheduler and
	// store exist.
	schedCfg    sched.Config
	maxFinished int
}

// Option configures a Server at construction.
type Option func(*Server)

// WithMaxFinishedJobs caps how many terminal jobs the store retains; the
// oldest finished jobs beyond the cap are evicted. n <= 0 disables eviction.
// The default is DefaultMaxFinishedJobs.
func WithMaxFinishedJobs(n int) Option {
	return func(s *Server) { s.maxFinished = n }
}

// WithScheduler sizes the device-pool scheduler: worker count, admission
// queue depth, per-tenant quota, result-cache entries. The zero Config (the
// default) selects GOMAXPROCS workers, a queue of sched.DefaultQueueDepth,
// no quotas, and a sched.DefaultCacheEntries-entry cache.
func WithScheduler(cfg sched.Config) Option {
	return func(s *Server) { s.schedCfg = cfg }
}

// NewServer returns a Server with an empty job store and a running
// scheduler pool; callers own its lifecycle and must Close it. Construction
// enables the process tracer: a server without spans would serve
// /debug/trace from an empty ring.
func NewServer(opts ...Option) *Server {
	s := &Server{start: time.Now(), mux: http.NewServeMux(), maxFinished: DefaultMaxFinishedJobs}
	for _, o := range opts {
		o(s)
	}
	s.sched = sched.New(s.schedCfg)
	s.jobs = newJobStore(s.sched)
	s.jobs.maxFinished = s.maxFinished
	trace.Default().SetEnabled(true)
	s.handle("GET /healthz", "healthz", s.healthz)
	s.handle("GET /readyz", "readyz", s.readyz)
	s.handle("GET /metrics", "metrics", s.metrics)
	s.handle("GET /algos", "algos", s.algos)
	s.handle("POST /jobs", "jobs-submit", s.submitJob)
	s.handle("GET /jobs", "jobs-list", s.listJobs)
	s.handle("GET /jobs/{id}", "jobs-get", s.getJob)
	s.handle("DELETE /jobs/{id}", "jobs-cancel", s.cancelJob)
	s.handle("GET /jobs/{id}/flight", "jobs-flight", s.jobFlight)
	s.handle("GET /debug/live/{id}", "jobs-live", s.liveJob)
	s.handle("GET /debug/trace", "trace-list", s.listTraces)
	s.handle("GET /debug/trace/{id}", "trace-get", s.getTrace)
	s.handle("GET /debug/trace/{id}/chrome", "trace-chrome", s.getTraceChrome)
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return s
}

// NewHTTPServer wraps handler in an http.Server bound to addr with the
// connection timeouts a long-lived service needs: a slow-loris client cannot
// hold a connection open indefinitely, and idle keep-alives are reaped.
// Detection itself is unaffected — jobs run on their own goroutines and are
// polled, never streamed.
func NewHTTPServer(addr string, handler http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      60 * time.Second,
		IdleTimeout:       120 * time.Second,
	}
}

// CancelAll requests cancellation of every live job. The -serve shutdown
// path calls it so in-flight detections unwind before the listener closes.
func (s *Server) CancelAll() { s.jobs.cancelAll() }

// Close drains and stops the scheduler pool: admission is refused, every
// live job's context is canceled, still-queued jobs resolve as canceled
// (sched.ErrStopped), and the call returns once the workers have exited.
// The server's handlers remain usable for status reads afterwards.
func (s *Server) Close() {
	s.BeginDrain()
	s.jobs.cancelAll()
	s.sched.Stop()
}

// SchedulerStats exposes the scheduler's accounting (tests, diagnostics).
func (s *Server) SchedulerStats() sched.Stats { return s.sched.Stats() }

// Handler returns the server's route table.
func (s *Server) Handler() http.Handler { return s.mux }

// statusWriter captures the response status for the access log. The zero
// status means the handler never called WriteHeader, which net/http treats
// as 200.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// Flush forwards to the wrapped writer so SSE handlers can stream through
// the access-log wrapper.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// handle mounts h with per-route request accounting and the access log.
// Every response carries an X-Request-Id; handlers that touch a traced job
// add X-Trace-Id, which the access log picks up so a request line can be
// followed into /debug/trace/{id}.
func (s *Server) handle(pattern, route string, h http.HandlerFunc) {
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		reqID := trace.NewID()
		w.Header().Set("X-Request-Id", reqID)
		sw := &statusWriter{ResponseWriter: w}
		h(sw, r)
		if sw.status == 0 {
			sw.status = http.StatusOK
		}
		mRequests.With(route).Inc()
		mRequestSeconds.Observe(time.Since(start).Seconds())
		attrs := []any{"method", r.Method, "path", r.URL.Path, "status", sw.status,
			"durationUs", time.Since(start).Microseconds(), "request", reqID}
		if tid := w.Header().Get("X-Trace-Id"); tid != "" {
			attrs = append(attrs, "trace", tid)
		}
		slog.Info("http request", attrs...)
	})
}

func (s *Server) metrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	metrics.Default().WritePrometheus(w)
}

func (s *Server) algos(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"algos": engine.List()})
}

// maxJobBodyBytes bounds a POST /jobs body. A JobSpec names its graph
// rather than carrying it, so a well-formed spec is a few hundred bytes.
const maxJobBodyBytes = 64 << 10

func (s *Server) submitJob(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxJobBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		code := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			code = http.StatusRequestEntityTooLarge
		}
		writeError(w, code, err)
		return
	}
	// A client names a generated graph, never a file: a path would let any
	// client make the server open any file it can read. The in-process
	// Submit (nulpa -serve -graph) still accepts one.
	if spec.Graph.Path != "" {
		writeError(w, http.StatusBadRequest, errors.New("graph.path is not accepted over HTTP; use graph.gen"))
		return
	}
	// The per-tenant admission quota keys on X-Tenant; absent means the
	// anonymous tenant (which shares one bucket like any other).
	j, err := s.jobs.submit(spec, r.Header.Get("X-Tenant"))
	if err != nil {
		var se *sched.ShedError
		if errors.As(err, &se) {
			writeShed(w, se)
			return
		}
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if j.traceID != "" {
		w.Header().Set("X-Trace-Id", j.traceID)
	}
	writeJSON(w, http.StatusAccepted, j.status())
}

// writeShed renders an admission rejection: 429 for transient overload
// (queue full, quota) and 503 for conditions a fast retry cannot fix
// (draining, a deadline the backlog cannot meet), both with a Retry-After
// derived from the scheduler's observed service time.
func writeShed(w http.ResponseWriter, se *sched.ShedError) {
	code := http.StatusTooManyRequests
	if se.Reason == sched.ReasonDraining || se.Reason == sched.ReasonDeadline {
		code = http.StatusServiceUnavailable
	}
	secs := int(math.Ceil(se.RetryAfter.Seconds()))
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	writeJSON(w, code, map[string]any{
		"error":        se.Error(),
		"reason":       se.Reason,
		"retryAfterMs": se.RetryAfter.Milliseconds(),
	})
}

func (s *Server) listJobs(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"jobs": s.jobs.list()})
}

func (s *Server) getJob(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	j, ok := s.jobs.get(id)
	if !ok {
		http.Error(w, `{"error":"no such job"}`, http.StatusNotFound)
		return
	}
	if j.traceID != "" {
		w.Header().Set("X-Trace-Id", j.traceID)
	}
	writeJSON(w, http.StatusOK, j.status())
}

// cancelJob handles DELETE /jobs/{id}: request cancellation of a live job.
// Jobs already in a terminal state return 409 Conflict with their status —
// a cancel cannot rewrite history. The response is the job's status at the
// moment of the request; poll GET /jobs/{id} to observe the transition to
// "canceled" (the run notices the context at its next iteration boundary).
func (s *Server) cancelJob(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	j, ok := s.jobs.get(id)
	if !ok {
		http.Error(w, `{"error":"no such job"}`, http.StatusNotFound)
		return
	}
	if !j.requestCancel() {
		writeJSON(w, http.StatusConflict, j.status())
		return
	}
	writeJSON(w, http.StatusAccepted, j.status())
}

// listTraces handles GET /debug/trace: one summary row per trace resident in
// the ring, newest first, plus the tracer's volume accounting.
func (s *Server) listTraces(w http.ResponseWriter, r *http.Request) {
	t := trace.Default()
	recorded, dropped, sampledOut := t.Stats()
	writeJSON(w, http.StatusOK, map[string]any{
		"traces": trace.Summaries(t.Spans()),
		"stats": map[string]uint64{
			"recorded": recorded, "dropped": dropped, "sampledOut": sampledOut,
		},
	})
}

// getTrace handles GET /debug/trace/{id}: the trace's resident spans as a
// tree (job → detect → iteration → kernel launches).
func (s *Server) getTrace(w http.ResponseWriter, r *http.Request) {
	id, err := trace.ParseTraceID(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	spans := trace.Default().TraceSpans(id)
	if len(spans) == 0 {
		http.Error(w, `{"error":"no such trace"}`, http.StatusNotFound)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"trace": id.String(),
		"spans": trace.BuildTree(spans),
	})
}

// getTraceChrome handles GET /debug/trace/{id}/chrome: the unified Chrome
// trace — the span tree merged with the owning job's device-profiler
// timeline (spans only when the job is gone or the trace wasn't a job's).
func (s *Server) getTraceChrome(w http.ResponseWriter, r *http.Request) {
	id, err := trace.ParseTraceID(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	spans := trace.Default().TraceSpans(id)
	if len(spans) == 0 {
		http.Error(w, `{"error":"no such trace"}`, http.StatusNotFound)
		return
	}
	var rec *telemetry.Recorder
	if j, ok := s.jobs.byTrace(id.String()); ok {
		rec = j.rec
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Disposition",
		`attachment; filename="trace-`+id.String()+`.json"`)
	telemetry.WriteChromeTrace(w, rec, spans)
}

// Submit starts a job directly (the -serve CLI path submits its initial job
// this way, before the listener is up). It passes through the same admission
// control as POST /jobs, as the anonymous tenant.
func (s *Server) Submit(spec JobSpec) (JobStatus, error) {
	j, err := s.jobs.submit(spec, "")
	if err != nil {
		return JobStatus{}, err
	}
	return j.status(), nil
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}
