// Package sched is the overload-safe serving core of the ν-LPA system: a
// device-pool scheduler that owns a fixed worker pool fed by a bounded,
// priority-aware admission queue. Where httpapi previously spawned one
// unbounded goroutine per submitted job — letting a burst of clients
// oversubscribe the device pool and destroy the latency the kernels earned —
// every job now passes admission control first:
//
//  1. Draining: once BeginDrain is called, every submission is shed
//     (reason "draining") so a load balancer can drain the instance.
//  2. Result cache / coalescing: a submission whose content hash matches a
//     completed cached result is answered immediately without consuming a
//     worker or a quota token; one matching an in-flight run is attached to
//     that run as a follower and shares its outcome.
//  3. Per-tenant quota: a token bucket per tenant (keyed on the X-Tenant
//     header by httpapi) sheds clients that exceed their sustained rate
//     (reason "quota"), with a Retry-After derived from the bucket's refill.
//  4. Deadline admission: a job whose deadline budget cannot be met by the
//     current queue depth — estimated from the observed service-time EWMA —
//     is rejected at admission (reason "would-miss-deadline") instead of
//     wasting device time on a result nobody will wait for.
//  5. Bounded queue: when the queue is full the job is shed (reason
//     "queue-full") with a Retry-After derived from the observed service
//     time, giving well-behaved clients an honest backoff hint.
//
// Admitted tasks are dispatched to the worker pool highest-priority-first
// (FIFO within a priority), so a burst of batch work cannot starve
// interactive jobs. Every decision is traceable: the task's span receives
// sched:admit|queue|dispatch|shed|coalesce events, and the metrics plane
// gains queue-depth/wait/shed/cache-hit series plus an end-to-end SLO
// latency histogram with trace exemplars.
//
// Layering: sched sits below httpapi and imports only the metrics and trace
// substrates (enforced by TestImportLayering in lint_test.go at the module
// root). It schedules opaque run functions; it knows nothing about graphs,
// jobs, or HTTP.
package sched

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"nulpa/internal/trace"
)

// Priority orders dispatch: High tasks always leave the queue before Normal,
// Normal before Low. Admission (quota, queue bounds) is priority-blind —
// priorities decide who waits, not who is admitted.
type Priority int

const (
	High Priority = iota
	Normal
	Low
	numPriorities = 3
)

// String returns the flag/header form of the priority.
func (p Priority) String() string {
	switch p {
	case High:
		return "high"
	case Low:
		return "low"
	default:
		return "normal"
	}
}

// ParsePriority parses the header/flag form; empty means Normal.
func ParsePriority(s string) (Priority, error) {
	switch s {
	case "", "normal":
		return Normal, nil
	case "high":
		return High, nil
	case "low":
		return Low, nil
	}
	return Normal, fmt.Errorf("sched: bad priority %q (high, normal, low)", s)
}

// Shed reasons, returned in ShedError.Reason and used as the label of
// sched_shed_total. Queue-full and quota sheds are transient (HTTP 429);
// draining and would-miss-deadline are conditions a retry against this
// instance cannot fix soon (HTTP 503).
const (
	ReasonQueueFull = "queue-full"
	ReasonQuota     = "quota"
	ReasonDeadline  = "would-miss-deadline"
	ReasonDraining  = "draining"
)

// ShedError is the admission-control rejection: the task was not queued and
// Done will never be called. RetryAfter is the scheduler's honest estimate
// of when a retry could succeed, derived from the observed service time (or
// the quota refill for quota sheds).
type ShedError struct {
	Reason     string
	RetryAfter time.Duration
}

func (e *ShedError) Error() string {
	return fmt.Sprintf("sched: shed (%s), retry after %s", e.Reason, e.RetryAfter.Round(time.Millisecond))
}

// ErrStopped resolves tasks still queued when Stop flushes the scheduler.
var ErrStopped = errors.New("sched: scheduler stopped")

// Config sizes the scheduler. The zero value of every field selects a
// sensible default; a zero Config is a working scheduler.
type Config struct {
	// Workers is the device-pool size: the maximum number of concurrently
	// running tasks. Defaults to GOMAXPROCS — one worker per simulated
	// streaming-multiprocessor host thread.
	Workers int
	// QueueDepth bounds the admission queue across all priorities; a full
	// queue sheds (429). Defaults to DefaultQueueDepth.
	QueueDepth int
	// QuotaRate is the per-tenant sustained admission rate in tasks/second;
	// 0 disables quotas.
	QuotaRate float64
	// QuotaBurst is the per-tenant token-bucket burst; 0 derives
	// max(1, ceil(2·QuotaRate)).
	QuotaBurst int
}

// DefaultQueueDepth bounds the admission queue when Config leaves it zero.
const DefaultQueueDepth = 64

// cacheEntries bounds the completed-result cache (LRU).
const cacheEntries = 128

// Task is one unit of admitted work. Run executes on a pool worker with the
// task's own context; Done is called exactly once for every admitted task —
// after Run returns, when the task is resolved from a coalesced primary or
// the cache, when its context is found canceled at dispatch, or when Stop
// flushes the queue. Done must not block.
type Task struct {
	// Tenant keys the admission quota ("" is a tenant like any other).
	Tenant string
	// Priority orders dispatch.
	Priority Priority
	// Key is the content hash for result caching and coalescing; ""
	// disables both for this task.
	Key string
	// Budget is the task's deadline budget for admission control; 0 means
	// no deadline. A task whose estimated queue wait + service time exceeds
	// the budget is shed instead of queued.
	Budget time.Duration
	// Ctx carries the task's cancellation; nil means context.Background().
	// A task canceled while queued is resolved (Done with the context's
	// error) without running.
	Ctx context.Context
	// Span, when non-nil, receives the sched:* lifecycle events.
	Span *trace.Span
	// Run executes the work. Panics are recovered and surfaced as errors.
	Run func(ctx context.Context) (any, error)
	// Done receives the task's outcome.
	Done func(Outcome)

	enq time.Time
}

// Outcome is the terminal result of an admitted task.
type Outcome struct {
	// Value is Run's result (for coalesced and cache-hit tasks, the
	// primary's result — consumers that mutate it should copy first).
	Value any
	// Err is Run's error, the queued-cancellation error, ErrStopped, or a
	// recovered panic.
	Err error
	// Coalesced marks a task resolved from an in-flight primary's run.
	Coalesced bool
	// CacheHit marks a task resolved from the completed-result cache.
	CacheHit bool
	// Wait is the time from admission to dispatch (or resolution).
	Wait time.Duration
}

// Decision reports how Submit disposed of an admitted task.
type Decision struct {
	// Queued: the task waits in the admission queue for a worker.
	Queued bool
	// Position is the queue length right after enqueue (1 = next up),
	// meaningful when Queued.
	Position int
	// Coalesced: the task was attached to an in-flight identical run.
	Coalesced bool
	// CacheHit: the task was resolved synchronously from the result cache.
	CacheHit bool
}

// Stats is a point-in-time snapshot of the scheduler's accounting.
type Stats struct {
	Workers     int
	QueueDepth  int
	Queued      int
	Running     int
	Draining    bool
	Admitted    int64
	Completed   int64
	Coalesced   int64
	CacheHits   int64
	Shed        map[string]int64
	ServiceEWMA time.Duration
}

// Scheduler owns the worker pool and the admission queue. Create with New;
// Stop releases the workers.
type Scheduler struct {
	cfg Config

	mu       sync.Mutex
	cond     *sync.Cond
	q        *pqueue
	quotas   *quotaSet
	cache    *resultCache
	running  int
	draining bool
	stopped  bool
	ewma     time.Duration // observed service time; 0 = no observation yet

	admitted  int64
	completed int64
	coalesced int64
	cacheHits int64
	shed      map[string]int64

	wg sync.WaitGroup
}

// New starts a scheduler with cfg's pool and queue. Callers must Stop it to
// release the workers.
func New(cfg Config) *Scheduler {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = DefaultQueueDepth
	}
	if cfg.QuotaBurst <= 0 && cfg.QuotaRate > 0 {
		cfg.QuotaBurst = int(2*cfg.QuotaRate + 0.999)
		if cfg.QuotaBurst < 1 {
			cfg.QuotaBurst = 1
		}
	}
	s := &Scheduler{
		cfg:    cfg,
		q:      newPQueue(),
		quotas: newQuotaSet(cfg.QuotaRate, cfg.QuotaBurst),
		cache:  newResultCache(cacheEntries),
		shed:   map[string]int64{},
	}
	s.cond = sync.NewCond(&s.mu)
	mWorkers.Set(float64(cfg.Workers))
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker(i)
	}
	return s
}

// Submit runs admission control on t. On success the returned Decision says
// whether the task queued, coalesced, or hit the cache; on shed the error is
// a *ShedError and Done will never be called.
func (s *Scheduler) Submit(t *Task) (Decision, error) {
	now := time.Now()
	t.enq = now
	if t.Ctx == nil {
		t.Ctx = context.Background()
	}
	t.Span.Event("sched:admit", map[string]any{
		"tenant": t.Tenant, "priority": t.Priority.String(),
	})

	s.mu.Lock()
	if s.draining || s.stopped {
		ra := s.retryAfterLocked()
		s.shed[ReasonDraining]++
		s.mu.Unlock()
		return s.shedTask(t, ReasonDraining, ra)
	}
	// Cache and coalesce before quota: neither consumes device time, so
	// neither should consume the tenant's budget for work that does.
	if t.Key != "" {
		if v, ok := s.cache.get(t.Key); ok {
			s.cacheHits++
			s.mu.Unlock()
			mCacheHits.Inc()
			t.Span.Event("sched:coalesce", map[string]any{"cache": true, "key": t.Key})
			s.resolve(t, Outcome{Value: v, CacheHit: true, Wait: time.Since(now)})
			return Decision{CacheHit: true}, nil
		}
		if s.cache.join(t.Key, t) {
			s.coalesced++
			s.mu.Unlock()
			mCoalesced.Inc()
			t.Span.Event("sched:coalesce", map[string]any{"cache": false, "key": t.Key})
			return Decision{Coalesced: true}, nil
		}
	}
	if !s.quotas.allow(t.Tenant, now) {
		ra := s.quotas.nextToken(t.Tenant, now)
		s.shed[ReasonQuota]++
		s.mu.Unlock()
		return s.shedTask(t, ReasonQuota, ra)
	}
	// Deadline admission: with an observed service time, estimate this
	// task's completion as (jobs ahead of it per worker + its own run) and
	// reject what cannot finish in budget. Before the first observation the
	// scheduler cannot predict and admits optimistically.
	if t.Budget > 0 && s.ewma > 0 {
		ahead := s.q.len() + s.running
		est := time.Duration(ahead/s.cfg.Workers+1) * s.ewma
		if est > t.Budget {
			s.shed[ReasonDeadline]++
			s.mu.Unlock()
			return s.shedTask(t, ReasonDeadline, est)
		}
	}
	if s.q.len() >= s.cfg.QueueDepth {
		ra := s.retryAfterLocked()
		s.shed[ReasonQueueFull]++
		s.mu.Unlock()
		return s.shedTask(t, ReasonQueueFull, ra)
	}
	if t.Key != "" {
		s.cache.begin(t.Key, t)
	}
	s.q.push(t)
	depth := s.q.len()
	s.admitted++
	// Under the lock, as in next, so a stale depth cannot outlive a pop.
	mQueueDepth.Set(float64(depth))
	s.cond.Signal()
	s.mu.Unlock()

	mAdmitted.With(t.Priority.String()).Inc()
	t.Span.Event("sched:queue", map[string]any{
		"depth": depth, "priority": t.Priority.String(),
	})
	return Decision{Queued: true, Position: depth}, nil
}

// shedTask finishes a rejection: span event, metric, error.
func (s *Scheduler) shedTask(t *Task, reason string, ra time.Duration) (Decision, error) {
	if ra <= 0 {
		ra = time.Second
	}
	mShed.With(reason).Inc()
	mRetryAfter.Set(ra.Seconds())
	t.Span.Event("sched:shed", map[string]any{
		"reason": reason, "retryAfterMs": ra.Milliseconds(),
	})
	return Decision{}, &ShedError{Reason: reason, RetryAfter: ra}
}

// retryAfterLocked derives the backoff hint for queue-full and draining
// sheds from the observed service time: the expected time for one queue slot
// to free across the pool. Caller holds s.mu.
func (s *Scheduler) retryAfterLocked() time.Duration {
	if s.ewma == 0 {
		return time.Second
	}
	ra := s.ewma / time.Duration(s.cfg.Workers)
	if ra < 50*time.Millisecond {
		ra = 50 * time.Millisecond
	}
	if ra > time.Minute {
		ra = time.Minute
	}
	return ra
}

// RetryAfter is the current backoff hint (exported for the drain-refusal
// path, which sheds before reaching Submit).
func (s *Scheduler) RetryAfter() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	ra := s.retryAfterLocked()
	if ra <= 0 {
		ra = time.Second
	}
	return ra
}

// BeginDrain stops admission: every subsequent Submit sheds with reason
// "draining". Queued tasks still dispatch (cancel their contexts to flush
// the queue quickly) and running tasks finish.
func (s *Scheduler) BeginDrain() {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
}

// Draining reports whether BeginDrain has been called.
func (s *Scheduler) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Stop drains admission, resolves every still-queued task with ErrStopped
// (Done is called — no admitted task is ever lost), and waits for the
// workers to exit. Running tasks finish first; cancel their contexts before
// Stop for a bounded shutdown.
func (s *Scheduler) Stop() {
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.draining, s.stopped = true, true
	rem := s.q.drain()
	s.cond.Broadcast()
	s.mu.Unlock()
	mQueueDepth.Set(0)
	for _, t := range rem {
		s.finishTask(t, Outcome{Err: ErrStopped, Wait: time.Since(t.enq)}, false)
	}
	s.wg.Wait()
}

// Stats snapshots the accounting.
func (s *Scheduler) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	shed := make(map[string]int64, len(s.shed))
	for k, v := range s.shed {
		shed[k] = v
	}
	return Stats{
		Workers:     s.cfg.Workers,
		QueueDepth:  s.cfg.QueueDepth,
		Queued:      s.q.len(),
		Running:     s.running,
		Draining:    s.draining,
		Admitted:    s.admitted,
		Completed:   s.completed,
		Coalesced:   s.coalesced,
		CacheHits:   s.cacheHits,
		Shed:        shed,
		ServiceEWMA: s.ewma,
	}
}

// worker is one pool goroutine: pop highest-priority task, run, resolve.
func (s *Scheduler) worker(id int) {
	defer s.wg.Done()
	for {
		t := s.next()
		if t == nil {
			return
		}
		wait := time.Since(t.enq)
		mQueueWait.Observe(wait.Seconds())
		out := Outcome{Wait: wait}
		if err := t.Ctx.Err(); err != nil {
			// Canceled while queued: resolve without running so a drain
			// storm flushes the queue in microseconds per task.
			out.Err = err
			s.finishTask(t, out, false)
			continue
		}
		t.Span.Event("sched:dispatch", map[string]any{
			"worker": id, "waitUs": wait.Microseconds(),
		})
		s.mu.Lock()
		s.running++
		s.mu.Unlock()
		mRunning.Set(s.runningNow())
		start := time.Now()
		out.Value, out.Err = s.runTask(t)
		svc := time.Since(start)
		mService.Observe(svc.Seconds())
		s.mu.Lock()
		s.running--
		// EWMA with α = 0.3: responsive to load shifts, stable per job.
		if s.ewma == 0 {
			s.ewma = svc
		} else {
			s.ewma = time.Duration(0.7*float64(s.ewma) + 0.3*float64(svc))
		}
		s.mu.Unlock()
		mRunning.Set(s.runningNow())
		s.finishTask(t, out, true)
	}
}

func (s *Scheduler) runningNow() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return float64(s.running)
}

// runTask executes Run with panic isolation: a panicking task fails itself,
// never its worker.
func (s *Scheduler) runTask(t *Task) (v any, err error) {
	defer func() {
		if r := recover(); r != nil {
			mPanics.Inc()
			err = fmt.Errorf("sched: task panic: %v", r)
		}
	}()
	return t.Run(t.Ctx)
}

// next blocks until a task is available or the scheduler stops.
func (s *Scheduler) next() *Task {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if t := s.q.pop(); t != nil {
			mQueueDepth.Set(float64(s.q.len()))
			return t
		}
		if s.stopped {
			return nil
		}
		s.cond.Wait()
	}
}

// finishTask resolves t and, when t was a coalescing primary, its followers.
// ran distinguishes a genuine run (cacheable on success) from a flush or a
// queued cancellation (followers inherit the error; nothing is cached).
func (s *Scheduler) finishTask(t *Task, out Outcome, ran bool) {
	var followers []*Task
	if t.Key != "" {
		s.mu.Lock()
		followers = s.cache.complete(t.Key, out.Value, ran && out.Err == nil)
		s.completed++
		s.mu.Unlock()
	} else {
		s.mu.Lock()
		s.completed++
		s.mu.Unlock()
	}
	s.resolve(t, out)
	for _, f := range followers {
		s.resolve(f, Outcome{
			Value:     out.Value,
			Err:       out.Err,
			Coalesced: true,
			Wait:      time.Since(f.enq),
		})
	}
}

// resolve delivers the outcome and observes the end-to-end SLO latency with
// the task's trace as exemplar.
func (s *Scheduler) resolve(t *Task, out Outcome) {
	tid := ""
	if t.Span != nil {
		tid = t.Span.TraceID().String()
	}
	mE2ELatency.ObserveExemplar(time.Since(t.enq).Seconds(), tid)
	if t.Done != nil {
		t.Done(out)
	}
}
