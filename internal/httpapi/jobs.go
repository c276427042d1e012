package httpapi

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"sort"
	"sync"
	"time"

	"nulpa/internal/engine"
	"nulpa/internal/faults"
	"nulpa/internal/health"
	"nulpa/internal/metrics"
	"nulpa/internal/nulpa"
	"nulpa/internal/quality"
	"nulpa/internal/sched"
	"nulpa/internal/telemetry"
	"nulpa/internal/trace"
)

// JobSpec is the body of POST /jobs: which detector to run on which graph.
type JobSpec struct {
	// Algo is the engine registry name ("nulpa", "flpa", ...).
	Algo string `json:"algo"`
	// Graph names the input.
	Graph GraphSpec `json:"graph"`
	// MaxIterations, Tolerance, Seed, Workers, and BlockDim map onto
	// engine.Options; zero keeps each detector's default.
	MaxIterations int     `json:"maxIterations,omitempty"`
	Tolerance     float64 `json:"tolerance,omitempty"`
	Seed          int64   `json:"seed,omitempty"`
	Workers       int     `json:"workers,omitempty"`
	BlockDim      int     `json:"blockDim,omitempty"`
	// Priority orders dispatch from the admission queue: "high", "normal"
	// (default), or "low". High-priority jobs always dispatch first.
	Priority string `json:"priority,omitempty"`
	// DeadlineMS is the job's latency budget for admission control: when
	// the scheduler's service-time estimate says the job cannot finish
	// within this budget, the submission is rejected with 503 instead of
	// queued. 0 means no deadline.
	DeadlineMS int64 `json:"deadlineMs,omitempty"`
	// Faults injects faults into a ν-LPA detector run (nulpa, nulpa-direct,
	// nulpa-sharded; same syntax as the -faults flag, e.g.
	// "kernel=0.01,seed=7"); submit refuses it for any other algo. Jobs
	// with fault injection never coalesce or cache: each submission is its
	// own chaos experiment.
	Faults string `json:"faults,omitempty"`
	// Quality attaches the live quality plane: incremental modularity,
	// community census, and churn per iteration (visible on the SSE health
	// stream and the final status), plus the sampled exact-recompute track
	// in any flight bundle.
	Quality bool `json:"quality,omitempty"`
	// QualitySampleEvery overrides the exact-recompute cadence (iterations
	// between rebases; 0 keeps the default).
	QualitySampleEvery int `json:"qualitySampleEvery,omitempty"`
}

// JobState is the lifecycle of a job.
type JobState string

const (
	JobPending  JobState = "pending"
	JobRunning  JobState = "running"
	JobDone     JobState = "done"
	JobFailed   JobState = "failed"
	JobCanceled JobState = "canceled"
)

// Terminal reports whether the state is final: a terminal job never changes
// state again and is eligible for store eviction.
func (s JobState) Terminal() bool {
	return s == JobDone || s == JobFailed || s == JobCanceled
}

// JobStatus is the JSON view of one job returned by /jobs and /jobs/{id}.
type JobStatus struct {
	ID        int      `json:"id"`
	Algo      string   `json:"algo"`
	Graph     string   `json:"graph"`
	State     JobState `json:"state"`
	Error     string   `json:"error,omitempty"`
	Submitted string   `json:"submitted"`
	// Iterations is live while the job runs (from the attached telemetry
	// recorder) and final afterwards.
	Iterations int `json:"iterations"`
	// LastDeltaN is the net label-change count of the most recent iteration —
	// the number a watcher polls to see convergence approach.
	LastDeltaN  int64   `json:"lastDeltaN,omitempty"`
	Converged   bool    `json:"converged,omitempty"`
	Communities int     `json:"communities,omitempty"`
	Modularity  float64 `json:"modularity,omitempty"`
	DurationMS  float64 `json:"durationMs,omitempty"`
	// Trace is the job's trace id — the key into /debug/trace/{id} and the
	// correlation token on every log line the job emitted. Empty when the
	// process tracer is off.
	Trace string `json:"trace,omitempty"`
	// Priority echoes the admitted priority class.
	Priority string `json:"priority,omitempty"`
	// Coalesced marks a job that shared an identical in-flight run instead
	// of executing; CacheHit marks one answered from the result cache. Both
	// carry the shared run's result.
	Coalesced bool `json:"coalesced,omitempty"`
	CacheHit  bool `json:"cacheHit,omitempty"`
	// Quality is the final quality-plane summary, present when the job was
	// submitted with "quality": true and ran to completion.
	Quality *quality.FinalStats `json:"quality,omitempty"`
}

// job is the server-side record.
type job struct {
	mu        sync.Mutex
	id        int
	spec      JobSpec
	state     JobState
	finishing bool // set by the first finish call; later calls are no-ops
	err       error
	submitted time.Time
	rec       *telemetry.Recorder
	res       *engine.Result
	mod       float64
	// priority is the parsed admission class; coalesced/cacheHit record how
	// the scheduler resolved the job.
	priority  sched.Priority
	coalesced bool
	cacheHit  bool
	// span is the job's root trace span (nil when tracing is off); traceID
	// is its hex id, kept separately so status() never locks the span.
	span    *trace.Span
	traceID string
	// cancel aborts the run's context; safe to call at any time, in any
	// state, any number of times.
	cancel context.CancelFunc
	// health monitors the run's iteration stream (attached as the
	// recorder's sink at submit); flight is the post-mortem bundle captured
	// at finish when the run faulted, degraded, or hit its deadline.
	health *health.Monitor
	flight *health.FlightBundle
	// store backlinks for terminal-state eviction accounting.
	store *jobStore
}

// flightBundle returns the captured post-mortem, nil if none was taken.
func (j *job) flightBundle() *health.FlightBundle {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.flight
}

func (j *job) status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID:        j.id,
		Algo:      j.spec.Algo,
		Graph:     j.spec.Graph.String(),
		State:     j.state,
		Submitted: j.submitted.UTC().Format(time.RFC3339),
	}
	if j.err != nil {
		st.Error = j.err.Error()
	}
	if recs := j.rec.IterRecords(); len(recs) > 0 {
		st.Iterations = len(recs)
		st.LastDeltaN = recs[len(recs)-1].DeltaN
	}
	if j.res != nil {
		st.Iterations = j.res.Iterations
		st.Converged = j.res.Converged
		st.Communities = j.res.Communities
		st.Modularity = j.mod
		st.DurationMS = float64(j.res.Duration) / float64(time.Millisecond)
		st.Quality = j.res.Quality
	}
	st.Trace = j.traceID
	st.Priority = j.priority.String()
	st.Coalesced = j.coalesced
	st.CacheHit = j.cacheHit
	return st
}

// Job-plane metrics.
var (
	mJobsSubmitted = metrics.NewCounter("httpapi_jobs_submitted_total",
		"Jobs accepted by POST /jobs.")
	mJobsByState = metrics.NewCounterVec("httpapi_jobs_finished_total",
		"Jobs that reached a terminal state.", "state")
	mJobsActive = metrics.NewGauge("httpapi_jobs_active",
		"Jobs currently running.")
	mJobsEvicted = metrics.NewCounter("httpapi_jobs_evicted_total",
		"Finished jobs dropped from the store by the retention cap.")
	mJobSeconds = metrics.NewHistogram("httpapi_job_duration_seconds",
		"Submit-to-terminal wall time of one job.",
		metrics.ExpBuckets(1e-3, 4, 12))
)

// DefaultMaxFinishedJobs is the retention cap on terminal jobs: once more
// than this many jobs have finished, the oldest finished jobs are evicted
// from the store (running and pending jobs are never evicted).
const DefaultMaxFinishedJobs = 256

// jobStore holds the jobs of a server's lifetime, bounded by maxFinished
// (DefaultMaxFinishedJobs; tests lower it).
// Execution goes through the scheduler: submit runs admission control and
// either queues the job on the device pool, attaches it to an identical
// in-flight run, answers it from the result cache, or sheds it.
type jobStore struct {
	mu          sync.Mutex
	next        int
	jobs        map[int]*job
	maxFinished int
	sched       *sched.Scheduler
}

func newJobStore(sch *sched.Scheduler) *jobStore {
	return &jobStore{next: 1, jobs: map[int]*job{}, maxFinished: DefaultMaxFinishedJobs, sched: sch}
}

// fingerprint is the content hash that keys the scheduler's result cache and
// request coalescing: every field that changes the detection's outcome. A
// path-named graph hashes the file's identity (path, size, mtime) rather
// than its bytes so submission never reads a multi-gigabyte file in the
// handler; a stat failure, like a fault-injection spec, returns "" and
// disables caching for the job.
func fingerprint(spec JobSpec) string {
	if spec.Faults != "" {
		return ""
	}
	h := sha256.New()
	fmt.Fprintf(h, "algo=%s|iter=%d|tol=%g|seed=%d|workers=%d|block=%d|quality=%t/%d|",
		spec.Algo, spec.MaxIterations, spec.Tolerance, spec.Seed, spec.Workers, spec.BlockDim,
		spec.Quality, spec.QualitySampleEvery)
	if spec.Graph.Path != "" {
		fi, err := os.Stat(spec.Graph.Path)
		if err != nil {
			return ""
		}
		fmt.Fprintf(h, "path=%s|size=%d|mtime=%d", spec.Graph.Path, fi.Size(), fi.ModTime().UnixNano())
	} else {
		fmt.Fprintf(h, "gen=%s|n=%d|deg=%d|gseed=%d",
			spec.Graph.Gen, spec.Graph.N, spec.Graph.Deg, spec.Graph.Seed)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// jobResult travels from a job's Run to every Done it resolves (its own and
// its coalesced followers'): the detection plus its quality score, computed
// once while the graph is still in hand.
type jobResult struct {
	res *engine.Result
	mod float64
}

// Admission bounds on what a job may ask the server to build and run: a
// generated graph's vertex count and degree, and the SM goroutines each
// kernel launch of the job's device starts.
const (
	maxJobVertices = 1 << 23
	maxJobDegree   = 1024
	maxJobWorkers  = 256
)

// submit validates the spec, registers the job, and hands it to the
// scheduler. The graph is built inside the job's Run so a slow generator or
// file load never blocks the HTTP handler. A shed submission (queue full,
// quota, deadline, draining) returns *sched.ShedError and leaves no job
// record behind.
func (s *jobStore) submit(spec JobSpec, tenant string) (*job, error) {
	if _, err := engine.MustGet(spec.Algo); err != nil {
		return nil, err
	}
	if spec.Graph.Path == "" && spec.Graph.Gen == "" {
		return nil, fmt.Errorf("job needs graph.path or graph.gen")
	}
	if spec.Graph.N > maxJobVertices || spec.Graph.Deg > maxJobDegree || spec.Workers > maxJobWorkers {
		return nil, fmt.Errorf("job exceeds admission bounds: graph.n <= %d, graph.deg <= %d, workers <= %d",
			maxJobVertices, maxJobDegree, maxJobWorkers)
	}
	prio, err := sched.ParsePriority(spec.Priority)
	if err != nil {
		return nil, err
	}
	if spec.Faults != "" {
		if _, ok := nulpa.Defaults(spec.Algo); !ok {
			return nil, fmt.Errorf("faults apply only to the ν-LPA detectors (nulpa, nulpa-direct, nulpa-sharded), not %q", spec.Algo)
		}
		if _, err := faults.ParseSpec(spec.Faults); err != nil {
			return nil, fmt.Errorf("bad faults spec: %w", err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	j := &job{
		spec:      spec,
		state:     JobPending,
		submitted: time.Now(),
		rec:       telemetry.NewRecorder(),
		cancel:    cancel,
		store:     s,
		priority:  prio,
	}
	s.mu.Lock()
	j.id = s.next
	s.next++
	s.mu.Unlock()
	// The job's root span: everything the run does — detect, iterations,
	// kernel launches, fault recovery — nests under it, and its trace id is
	// the handle /jobs/{id} and /debug/trace/{id} share.
	ctx, j.span = trace.Default().Root(ctx, "job")
	if j.span != nil {
		j.traceID = j.span.TraceID().String()
		j.span.SetInt("job", int64(j.id))
		j.span.SetString("algo", spec.Algo)
		j.span.SetString("graph", spec.Graph.String())
	}
	// The health monitor rides the recorder's iteration stream; the graph
	// size arrives via SetTarget once the run has built it, and the
	// convergence threshold with the iteration records.
	j.health = health.New(health.Config{Detector: spec.Algo, Span: j.span})
	j.rec.SetSink(j.health)
	// Publish only a fully initialized job: list() and byTrace() read
	// traceID and span without the job's lock.
	s.mu.Lock()
	s.jobs[j.id] = j
	s.mu.Unlock()

	dec, err := s.sched.Submit(&sched.Task{
		Tenant:   tenant,
		Priority: prio,
		Key:      fingerprint(spec),
		Budget:   time.Duration(spec.DeadlineMS) * time.Millisecond,
		Ctx:      ctx,
		Span:     j.span,
		Run:      func(ctx context.Context) (any, error) { return j.execute(ctx) },
		Done:     j.resolve,
	})
	if err != nil {
		// Shed at admission: unwind the registration so a rejected
		// submission leaves no record, no monitor, no span.
		s.mu.Lock()
		delete(s.jobs, j.id)
		s.mu.Unlock()
		cancel()
		j.health.Close()
		j.span.SetString("state", "shed")
		j.span.End()
		slog.Warn("job shed", "job", j.id, "algo", spec.Algo, "tenant", tenant, "error", err)
		return nil, err
	}
	if dec.Coalesced {
		// The resolution flag arrives with Done when the primary finishes;
		// the submit response should already say the job coalesced.
		j.mu.Lock()
		j.coalesced = true
		j.mu.Unlock()
	}
	mJobsSubmitted.Inc()
	slog.Info("job created",
		"job", j.id, "algo", spec.Algo, "graph", spec.Graph.String(),
		"priority", prio.String(), "tenant", tenant,
		"coalesced", dec.Coalesced, "cacheHit", dec.CacheHit, "trace", j.traceID)
	return j, nil
}

func (s *jobStore) get(id int) (*job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// byTrace finds the job whose root span owns traceID — the unified-trace
// endpoint uses it to pair a span tree with its job's profiler recorder.
func (s *jobStore) byTrace(traceID string) (*job, bool) {
	if traceID == "" {
		return nil, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, j := range s.jobs {
		if j.traceID == traceID {
			return j, true
		}
	}
	return nil, false
}

// list returns every job's status, newest first.
func (s *jobStore) list() []JobStatus {
	s.mu.Lock()
	jobs := make([]*job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	sort.Slice(jobs, func(a, b int) bool { return jobs[a].id > jobs[b].id })
	out := make([]JobStatus, len(jobs))
	for i, j := range jobs {
		out[i] = j.status()
	}
	return out
}

// requestCancel asks the run to stop. It reports false when the job is
// already terminal (nothing left to cancel). The run observes the canceled
// context at its next iteration boundary and finishes as JobCanceled.
func (j *job) requestCancel() bool {
	j.mu.Lock()
	terminal := j.state.Terminal()
	j.mu.Unlock()
	if terminal {
		return false
	}
	j.cancel()
	return true
}

// finish moves the job to a terminal state exactly once; late callers (a
// cancel racing a natural completion, a panic unwinding after a failure)
// are no-ops. It releases the run's context resources and triggers store
// eviction accounting.
func (j *job) finish(state JobState, err error, res *engine.Result, mod float64) {
	j.mu.Lock()
	if j.finishing {
		j.mu.Unlock()
		return
	}
	j.finishing = true
	j.mu.Unlock()
	// Post-mortem capture: faults, deadlines, and backend degradation each
	// freeze the flight recorder before the monitor closes. A clean finish
	// keeps the monitor's frames around for an explicit /jobs/{id}/flight.
	// The bundle is stored in the same critical section that publishes the
	// terminal state, so a client that sees the job fail always fetches the
	// fault post-mortem, never a fresh on-request bundle.
	var flight *health.FlightBundle
	reason := flightReason(state, err, res)
	if reason != "" {
		switch reason {
		case "degraded":
			j.health.RecordEvent("fallback:direct", "simt backend degraded to direct")
		default:
			j.health.RecordEvent(reason, err.Error())
		}
		flight = j.health.Flight(reason)
	}
	j.mu.Lock()
	j.state, j.err, j.res, j.mod = state, err, res, mod
	if flight != nil {
		j.flight = flight
	}
	j.mu.Unlock()
	j.cancel()
	if flight != nil {
		slog.Warn("job flight recorded", "job", j.id, "reason", reason, "trace", j.traceID)
	}
	j.health.Close()
	mJobsByState.With(string(state)).Inc()
	mJobSeconds.Observe(time.Since(j.submitted).Seconds())
	j.span.SetString("state", string(state))
	if err != nil {
		j.span.SetString("error", err.Error())
	}
	j.span.End()
	attrs := []any{"job", j.id, "state", string(state),
		"durationMs", time.Since(j.submitted).Milliseconds(), "trace", j.traceID}
	switch {
	case err != nil && state == JobCanceled:
		slog.Info("job canceled", attrs...)
	case err != nil:
		slog.Warn("job failed", append(attrs, "error", err)...)
	default:
		slog.Info("job finished", attrs...)
	}
	j.store.noteFinished()
}

// execute runs the detection on a scheduler worker. It is the job's
// sched.Task Run callback: the graph is built here (so a slow generator
// blocks a pool worker, never the HTTP handler). A panicking detector fails
// the job through the scheduler's panic isolation (sched_task_panics_total),
// and the worker survives.
func (j *job) execute(ctx context.Context) (any, error) {
	j.mu.Lock()
	j.state = JobRunning
	j.mu.Unlock()
	slog.Info("job started", "job", j.id, "algo", j.spec.Algo, "trace", j.traceID)
	mJobsActive.Add(1)
	defer mJobsActive.Add(-1)

	g, err := j.spec.Graph.Build()
	if err != nil {
		return nil, err
	}
	j.health.SetTarget(g.NumVertices())
	// A cancel that lands while the graph was building should not start the
	// detector at all.
	if cerr := ctx.Err(); cerr != nil {
		return nil, engine.CtxErr(cerr)
	}
	det, err := engine.MustGet(j.spec.Algo)
	if err != nil {
		return nil, err
	}

	opt := engine.DefaultOptions()
	opt.Context = ctx
	opt.MaxIterations = j.spec.MaxIterations
	opt.Tolerance = j.spec.Tolerance
	if j.spec.Seed != 0 {
		opt.Seed = j.spec.Seed
	}
	opt.Workers = j.spec.Workers
	opt.BlockDim = j.spec.BlockDim
	opt.Profiler = j.rec
	if j.spec.Quality {
		opt.Quality = engine.QualityConfig{Enabled: true, SampleEvery: j.spec.QualitySampleEvery}
	}
	// Every ν-LPA device reports to the job's recorder through opt.Profiler,
	// and a profiled launch feeds the live metrics plane itself. Options are
	// built here only to carry a fault schedule, which submit admits only
	// for the ν-LPA detectors.
	if j.spec.Faults != "" {
		fspec, ferr := faults.ParseSpec(j.spec.Faults)
		if ferr != nil {
			return nil, fmt.Errorf("bad faults spec: %w", ferr)
		}
		nopt, _ := nulpa.Defaults(j.spec.Algo)
		nopt.Faults = faults.New(fspec)
		opt.Extra = nopt
	}

	res, err := det.Detect(g, opt)
	if err != nil {
		return nil, err
	}
	return &jobResult{res: res, mod: quality.Modularity(g, res.Labels)}, nil
}

// resolve is the job's sched.Task Done callback — the single terminal path
// for every admitted job, whether it ran, coalesced onto an identical run,
// hit the result cache, was canceled while queued, or was flushed by Stop.
func (j *job) resolve(out sched.Outcome) {
	j.mu.Lock()
	j.coalesced, j.cacheHit = out.Coalesced, out.CacheHit
	shared := out.Coalesced || out.CacheHit
	j.mu.Unlock()
	if err := out.Err; err != nil {
		// Raw context errors arrive from the canceled-while-queued path;
		// map them onto the engine's typed interrupts like a run would.
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			err = engine.CtxErr(err)
		}
		state := JobFailed
		if engine.IsInterrupt(err) || errors.Is(err, sched.ErrStopped) {
			state = JobCanceled
		}
		j.finish(state, err, nil, 0)
		return
	}
	jr, ok := out.Value.(*jobResult)
	if !ok || jr == nil {
		j.finish(JobFailed, fmt.Errorf("scheduler resolved job without a result"), nil, 0)
		return
	}
	res := jr.res
	if shared {
		// The primary's result is shared with every coalesced sibling;
		// clone so one consumer relabeling cannot corrupt the others.
		res = res.Clone()
	}
	j.finish(JobDone, nil, res, jr.mod)
}

// noteFinished enforces the retention cap: when more than maxFinished jobs
// are terminal, the oldest terminal jobs are evicted. Running and pending
// jobs are never evicted, so a cancel or status probe on a live job always
// resolves.
func (s *jobStore) noteFinished() {
	s.mu.Lock()
	defer s.mu.Unlock()
	finished := make([]*job, 0, len(s.jobs))
	for _, j := range s.jobs {
		j.mu.Lock()
		terminal := j.state.Terminal()
		j.mu.Unlock()
		if terminal {
			finished = append(finished, j)
		}
	}
	if len(finished) <= s.maxFinished {
		return
	}
	sort.Slice(finished, func(a, b int) bool { return finished[a].id < finished[b].id })
	for _, j := range finished[:len(finished)-s.maxFinished] {
		delete(s.jobs, j.id)
		mJobsEvicted.Inc()
		slog.Info("job evicted", "job", j.id, "trace", j.traceID)
	}
}

// flightReason decides whether a finishing job warrants a post-mortem
// capture: a fault or deadline always does, as does a run that completed only
// by degrading to the fallback backend. User cancellation and clean finishes
// do not (an operator can still request a bundle via /jobs/{id}/flight).
func flightReason(state JobState, err error, res *engine.Result) string {
	if err != nil {
		switch {
		case errors.Is(err, engine.ErrDeadline):
			return "deadline"
		case errors.Is(err, engine.ErrCanceled):
			return ""
		case state == JobFailed:
			return "fault"
		}
		return ""
	}
	if res != nil {
		if nres, ok := res.Extra.(*nulpa.Result); ok && nres.Degraded {
			return "degraded"
		}
	}
	return ""
}

// cancelAll requests cancellation of every live job (server shutdown path).
func (s *jobStore) cancelAll() {
	s.mu.Lock()
	jobs := make([]*job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	for _, j := range jobs {
		j.requestCancel()
	}
}
