package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"time"

	"nulpa/internal/httpapi"
	"nulpa/internal/sched"
)

// clients is the closed loop's client count, and the scheduler's worker
// count: one of each per CPU of the 2-core host the benchmark was sized on.
const clients = 2

// jobTimeout bounds one job's submit-to-end wait, so a lost job fails the
// run instead of hanging it.
const jobTimeout = 60 * time.Second

// service is an in-process server on a loopback listener.
type service struct {
	srv    *httpapi.Server
	ts     *httptest.Server
	client *http.Client
}

func startService() *service {
	srv := httpapi.NewServer(httpapi.WithScheduler(sched.Config{Workers: clients}))
	ts := httptest.NewServer(srv.Handler())
	return &service{srv: srv, ts: ts, client: ts.Client()}
}

// close stops the listener (waiting for open requests) and the scheduler.
func (s *service) close() {
	s.ts.Close()
	s.srv.Close()
}

// job is one served job as its client saw it.
type job struct {
	submit, total time.Duration
	st            httpapi.JobStatus
	err           error
}

// executed reports whether the job ran a detection of its own, rather than
// sharing another job's through the scheduler's cache or coalescing.
func (j *job) executed() bool { return !j.st.CacheHit && !j.st.Coalesced }

// runJob submits spec and waits for the job's "end" event on its live SSE
// stream, which arrives without polling once the job is terminal.
func (s *service) runJob(spec httpapi.JobSpec, floor float64, tr *tracer) *job {
	j := &job{}
	ctx, cancel := context.WithTimeout(context.Background(), jobTimeout)
	defer cancel()
	req := tr.req()
	root := tr.begin("job", req, 0)
	var id int
	j.submit = tr.timed("submit", req, root, func() { id, j.err = s.post(ctx, spec) })
	if j.err == nil {
		tr.timed("wait", req, root, func() { j.st, j.err = s.awaitEnd(ctx, id) })
	}
	j.total = tr.end(root)
	if j.err == nil && j.st.State != httpapi.JobDone {
		j.err = fmt.Errorf("job %d ended %s: %s", id, j.st.State, j.st.Error)
	}
	if j.err == nil {
		j.err = checkModularity(j.st.Modularity, floor)
	}
	return j
}

// post submits spec and returns the job id; a shed (429/503) is an error.
func (s *service) post(ctx context.Context, spec httpapi.JobSpec) (int, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return 0, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.ts.URL+"/jobs", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		msg, _ := io.ReadAll(resp.Body)
		return 0, fmt.Errorf("POST /jobs: %s: %s", resp.Status, strings.TrimSpace(string(msg)))
	}
	var st httpapi.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return 0, fmt.Errorf("POST /jobs: %w", err)
	}
	return st.ID, nil
}

// awaitEnd reads /debug/live/{id} until the "end" event and returns the
// status it carries. A stream cut with "lagged" is reopened: the server
// replays the retained frames and still ends with "end".
func (s *service) awaitEnd(ctx context.Context, id int) (httpapi.JobStatus, error) {
	url := fmt.Sprintf("%s/debug/live/%d", s.ts.URL, id)
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
		if err != nil {
			return httpapi.JobStatus{}, err
		}
		resp, err := s.client.Do(req)
		if err != nil {
			return httpapi.JobStatus{}, err
		}
		st, ended, err := readEnd(resp.Body)
		resp.Body.Close()
		if err != nil || ended {
			return st, err
		}
	}
}

// readEnd scans an SSE stream for the "end" event. ended is false when the
// stream stopped without one.
func readEnd(r io.Reader) (st httpapi.JobStatus, ended bool, err error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		if e, ok := strings.CutPrefix(line, "event: "); ok {
			event = e
			continue
		}
		if data, ok := strings.CutPrefix(line, "data: "); ok && event == "end" {
			err := json.Unmarshal([]byte(data), &st)
			return st, true, err
		}
	}
	return st, false, sc.Err()
}

// jobSpec is a job running w's detector on w's job graph generated with
// graphSeed.
func jobSpec(w *workload, graphSeed int64) httpapi.JobSpec {
	g := w.job
	g.Seed = graphSeed
	return httpapi.JobSpec{Algo: w.algo, Graph: g}
}

// measuredSeed is the graph seed of measured submission i in a run seeded
// with seed. Every fourth submission repeats the graph of the one two places
// earlier, which the scheduler serves from its cache or by coalescing with
// the running job.
func measuredSeed(seed int64, i int) int64 {
	if i%4 == 3 {
		i -= 2
	}
	return seed*1_000_000 + int64(i)
}

// warmupSeed is the graph seed of the k-th set-up or warm-up job: apart
// from the measured ones, so none of those is answered from the cache.
func warmupSeed(seed int64, k int) int64 { return seed*1_000_000 + 900_000 + int64(k) }

// closedLoop runs clients closed-loop clients against s: each submits its
// next job only once the previous one has ended. Submissions are numbered
// in order; a client stops when more(i, elapsed) is false for its next
// number. It returns the jobs in submission order and the wall time from
// the first submission to the last end.
func (s *service) closedLoop(spec func(i int) httpapi.JobSpec, more func(i int, elapsed time.Duration) bool,
	floor float64, tr *tracer) ([]*job, time.Duration) {
	var (
		mu   sync.Mutex
		next int
		jobs []*job
		last time.Duration
	)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				if !more(i, time.Since(start)) {
					mu.Unlock()
					return
				}
				next++
				jobs = append(jobs, nil)
				mu.Unlock()
				j := s.runJob(spec(i), floor, tr)
				mu.Lock()
				jobs[i] = j
				last = time.Since(start)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return jobs, last
}

// serving is what a closed loop measured.
type serving struct {
	jobs    []*job
	elapsed time.Duration
	// cacheHitFrac is the share of accepted jobs the scheduler answered
	// from its cache or by coalescing instead of running them.
	cacheHitFrac float64
	// alloc is the heap bytes the process allocated during the loop.
	alloc uint64
}

// serveLoop warms s up with w's warm-up jobs and then measures a closed
// loop of jobs running w's detector, stopping when more says so.
func serveLoop(s *service, w *workload, seed int64,
	more func(i int, elapsed time.Duration) bool, tr *tracer) (*serving, error) {
	if w.warmup > 0 {
		jobs, _ := s.closedLoop(func(i int) httpapi.JobSpec { return jobSpec(w, warmupSeed(seed, 1+i)) },
			func(i int, _ time.Duration) bool { return i < w.warmup }, w.jobFloor, tr)
		for _, j := range jobs {
			if j.err != nil {
				return nil, fmt.Errorf("warm-up job: %w", j.err)
			}
		}
	}
	before := s.srv.SchedulerStats()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	jobs, elapsed := s.closedLoop(func(i int) httpapi.JobSpec { return jobSpec(w, measuredSeed(seed, i)) }, more, w.jobFloor, tr)
	runtime.ReadMemStats(&m1)
	after := s.srv.SchedulerStats()
	out := &serving{jobs: jobs, elapsed: elapsed, alloc: m1.TotalAlloc - m0.TotalAlloc}
	// The scheduler's Admitted counts only the submissions it queued to run.
	shared := after.CacheHits - before.CacheHits + after.Coalesced - before.Coalesced
	if accepted := after.Admitted - before.Admitted + shared; accepted > 0 {
		out.cacheHitFrac = float64(shared) / float64(accepted)
	}
	return out, nil
}

// setUpService starts a service and runs its first job to the end,
// setupReps times, closing all but the last service. Each fresh service
// runs the same first job, uncached. It returns the last service and each
// set-up's time to a served first job, in seconds.
func setUpService(w *workload, seed int64, tr *tracer) (*service, []float64, error) {
	var s *service
	var times []float64
	for i := 0; i < setupReps; i++ {
		if s != nil {
			s.close()
		}
		start := time.Now()
		s = startService()
		j := s.runJob(jobSpec(w, warmupSeed(seed, 0)), w.jobFloor, tr)
		times = append(times, time.Since(start).Seconds())
		if j.err != nil {
			s.close()
			return nil, nil, fmt.Errorf("set-up job: %w", j.err)
		}
	}
	return s, times, nil
}
