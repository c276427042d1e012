package sched

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// waitFor polls cond for up to two seconds — used to let the pool reach a
// known state (e.g. all workers busy) before the test proceeds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// done returns a Done callback recording its outcome on a buffered channel.
func done() (func(Outcome), chan Outcome) {
	ch := make(chan Outcome, 1)
	return func(o Outcome) { ch <- o }, ch
}

func TestSubmitRunsTask(t *testing.T) {
	s := New(Config{Workers: 2, QueueDepth: 4})
	defer s.Stop()
	cb, ch := done()
	dec, err := s.Submit(&Task{
		Run:  func(ctx context.Context) (any, error) { return 42, nil },
		Done: cb,
	})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if !dec.Queued {
		t.Fatalf("expected Queued decision, got %+v", dec)
	}
	out := <-ch
	if out.Err != nil || out.Value != 42 {
		t.Fatalf("outcome = %+v", out)
	}
	if out.CacheHit || out.Coalesced {
		t.Fatalf("fresh run marked coalesced/cached: %+v", out)
	}
}

func TestPriorityOrdering(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 16})
	defer s.Stop()

	block := make(chan struct{})
	blockerDone, blockerCh := done()
	if _, err := s.Submit(&Task{
		Run:  func(ctx context.Context) (any, error) { <-block; return nil, nil },
		Done: blockerDone,
	}); err != nil {
		t.Fatalf("blocker: %v", err)
	}
	waitFor(t, "worker busy", func() bool { return s.Stats().Running == 1 })

	var mu sync.Mutex
	var order []string
	submit := func(name string, p Priority) {
		if _, err := s.Submit(&Task{
			Priority: p,
			Run: func(ctx context.Context) (any, error) {
				mu.Lock()
				order = append(order, name)
				mu.Unlock()
				return nil, nil
			},
			Done: func(Outcome) {},
		}); err != nil {
			t.Fatalf("submit %s: %v", name, err)
		}
	}
	// Enqueued worst-first; dispatch must invert to priority order.
	submit("low", Low)
	submit("normal", Normal)
	submit("high", High)
	submit("high2", High)

	close(block)
	<-blockerCh
	waitFor(t, "queue drained", func() bool {
		st := s.Stats()
		return st.Queued == 0 && st.Running == 0
	})
	mu.Lock()
	got := strings.Join(order, ",")
	mu.Unlock()
	if got != "high,high2,normal,low" {
		t.Fatalf("dispatch order = %s", got)
	}
}

// TestExactAdmission is the overload acceptance criterion at the scheduler
// layer: with W workers and queue depth Q, exactly W+Q of a storm are
// admitted and every excess submission sheds with a Retry-After.
func TestExactAdmission(t *testing.T) {
	const W, Q, extra = 2, 5, 20
	s := New(Config{Workers: W, QueueDepth: Q})
	defer s.Stop()

	block := make(chan struct{})
	var ran atomic.Int64
	mk := func() *Task {
		return &Task{
			Run: func(ctx context.Context) (any, error) {
				ran.Add(1)
				<-block
				return nil, nil
			},
			Done: func(Outcome) {},
		}
	}
	for i := 0; i < W; i++ {
		if _, err := s.Submit(mk()); err != nil {
			t.Fatalf("worker-filling submit %d: %v", i, err)
		}
	}
	waitFor(t, "all workers busy", func() bool {
		st := s.Stats()
		return st.Running == W && st.Queued == 0
	})
	for i := 0; i < Q; i++ {
		dec, err := s.Submit(mk())
		if err != nil {
			t.Fatalf("queue-filling submit %d: %v", i, err)
		}
		if !dec.Queued || dec.Position != i+1 {
			t.Fatalf("submit %d: decision %+v", i, dec)
		}
	}
	shed := 0
	for i := 0; i < extra; i++ {
		_, err := s.Submit(mk())
		var se *ShedError
		if !errors.As(err, &se) {
			t.Fatalf("excess submit %d: err = %v, want ShedError", i, err)
		}
		if se.Reason != ReasonQueueFull {
			t.Fatalf("excess submit %d: reason %q", i, se.Reason)
		}
		if se.RetryAfter <= 0 {
			t.Fatalf("excess submit %d: no Retry-After", i)
		}
		shed++
	}
	st := s.Stats()
	if st.Admitted != W+Q || st.Shed[ReasonQueueFull] != extra || shed != extra {
		t.Fatalf("admitted=%d shed=%v, want admitted=%d shed[queue-full]=%d",
			st.Admitted, st.Shed, W+Q, extra)
	}
	close(block)
	waitFor(t, "storm drained", func() bool {
		st := s.Stats()
		return st.Queued == 0 && st.Running == 0
	})
	if n := ran.Load(); n != W+Q {
		t.Fatalf("ran %d tasks, want %d", n, W+Q)
	}
}

func TestQuotaSheds(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 16, QuotaRate: 0.001, QuotaBurst: 2})
	defer s.Stop()
	mk := func(tenant string) *Task {
		return &Task{
			Tenant: tenant,
			Run:    func(ctx context.Context) (any, error) { return nil, nil },
			Done:   func(Outcome) {},
		}
	}
	for i := 0; i < 2; i++ {
		if _, err := s.Submit(mk("acme")); err != nil {
			t.Fatalf("within-burst submit %d: %v", i, err)
		}
	}
	_, err := s.Submit(mk("acme"))
	var se *ShedError
	if !errors.As(err, &se) || se.Reason != ReasonQuota {
		t.Fatalf("over-quota submit: err = %v, want quota shed", err)
	}
	if se.RetryAfter <= 0 {
		t.Fatalf("quota shed without Retry-After hint")
	}
	// Quota is per tenant: a different tenant is unaffected.
	if _, err := s.Submit(mk("globex")); err != nil {
		t.Fatalf("other tenant shed too: %v", err)
	}
}

func TestDeadlineAdmission(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 16})
	defer s.Stop()

	// Before any observation the scheduler admits optimistically even with
	// a tiny budget.
	cb, ch := done()
	if _, err := s.Submit(&Task{
		Budget: time.Nanosecond,
		Run: func(ctx context.Context) (any, error) {
			time.Sleep(30 * time.Millisecond)
			return nil, nil
		},
		Done: cb,
	}); err != nil {
		t.Fatalf("first (unobserved) submit: %v", err)
	}
	<-ch
	waitFor(t, "ewma observed", func() bool { return s.Stats().ServiceEWMA > 0 })

	// Now the EWMA (~30ms) says a microsecond budget cannot be met.
	_, err := s.Submit(&Task{
		Budget: time.Microsecond,
		Run:    func(ctx context.Context) (any, error) { return nil, nil },
		Done:   func(Outcome) {},
	})
	var se *ShedError
	if !errors.As(err, &se) || se.Reason != ReasonDeadline {
		t.Fatalf("tiny-budget submit: err = %v, want would-miss-deadline", err)
	}
	// A generous budget is admitted.
	cb2, ch2 := done()
	if _, err := s.Submit(&Task{
		Budget: time.Minute,
		Run:    func(ctx context.Context) (any, error) { return nil, nil },
		Done:   cb2,
	}); err != nil {
		t.Fatalf("generous-budget submit: %v", err)
	}
	<-ch2
}

func TestCoalesceAndCache(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 16})
	defer s.Stop()

	block := make(chan struct{})
	var runs atomic.Int64
	primaryDone, primaryCh := done()
	if _, err := s.Submit(&Task{
		Key: "k1",
		Run: func(ctx context.Context) (any, error) {
			runs.Add(1)
			<-block
			return "payload", nil
		},
		Done: primaryDone,
	}); err != nil {
		t.Fatalf("primary: %v", err)
	}
	waitFor(t, "primary running", func() bool { return s.Stats().Running == 1 })

	followerDone, followerCh := done()
	dec, err := s.Submit(&Task{
		Key:  "k1",
		Run:  func(ctx context.Context) (any, error) { t.Error("follower ran"); return nil, nil },
		Done: followerDone,
	})
	if err != nil || !dec.Coalesced {
		t.Fatalf("follower: dec=%+v err=%v, want coalesced", dec, err)
	}

	close(block)
	p := <-primaryCh
	f := <-followerCh
	if p.Value != "payload" || f.Value != "payload" {
		t.Fatalf("primary=%+v follower=%+v", p, f)
	}
	if !f.Coalesced || p.Coalesced {
		t.Fatalf("coalesced flags: primary=%+v follower=%+v", p, f)
	}

	// A later identical submission hits the completed-result cache without
	// touching a worker; Done fires synchronously inside Submit.
	hitDone, hitCh := done()
	dec, err = s.Submit(&Task{
		Key:  "k1",
		Run:  func(ctx context.Context) (any, error) { t.Error("cache-hit ran"); return nil, nil },
		Done: hitDone,
	})
	if err != nil || !dec.CacheHit {
		t.Fatalf("cache hit: dec=%+v err=%v", dec, err)
	}
	h := <-hitCh
	if h.Value != "payload" || !h.CacheHit {
		t.Fatalf("cache-hit outcome: %+v", h)
	}
	if n := runs.Load(); n != 1 {
		t.Fatalf("primary ran %d times", n)
	}
	st := s.Stats()
	if st.Coalesced != 1 || st.CacheHits != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestFailedRunNotCached(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 4})
	defer s.Stop()
	cb, ch := done()
	if _, err := s.Submit(&Task{
		Key:  "boom",
		Run:  func(ctx context.Context) (any, error) { return nil, errors.New("bad run") },
		Done: cb,
	}); err != nil {
		t.Fatalf("submit: %v", err)
	}
	if out := <-ch; out.Err == nil {
		t.Fatalf("expected error outcome")
	}
	// The failure must not be served from cache: the retry runs for real.
	cb2, ch2 := done()
	dec, err := s.Submit(&Task{
		Key:  "boom",
		Run:  func(ctx context.Context) (any, error) { return "ok", nil },
		Done: cb2,
	})
	if err != nil || dec.CacheHit || dec.Coalesced {
		t.Fatalf("retry: dec=%+v err=%v", dec, err)
	}
	if out := <-ch2; out.Err != nil || out.Value != "ok" {
		t.Fatalf("retry outcome: %+v", out)
	}
}

func TestCanceledWhileQueued(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 4})
	defer s.Stop()

	block := make(chan struct{})
	blockerDone, blockerCh := done()
	s.Submit(&Task{
		Run:  func(ctx context.Context) (any, error) { <-block; return nil, nil },
		Done: blockerDone,
	})
	waitFor(t, "worker busy", func() bool { return s.Stats().Running == 1 })

	ctx, cancel := context.WithCancel(context.Background())
	cb, ch := done()
	if _, err := s.Submit(&Task{
		Ctx:  ctx,
		Run:  func(ctx context.Context) (any, error) { t.Error("canceled task ran"); return nil, nil },
		Done: cb,
	}); err != nil {
		t.Fatalf("submit: %v", err)
	}
	cancel()
	close(block)
	<-blockerCh
	out := <-ch
	if !errors.Is(out.Err, context.Canceled) {
		t.Fatalf("outcome err = %v, want context.Canceled", out.Err)
	}
}

func TestPanicIsolated(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 4})
	defer s.Stop()
	cb, ch := done()
	if _, err := s.Submit(&Task{
		Run:  func(ctx context.Context) (any, error) { panic("kernel fault") },
		Done: cb,
	}); err != nil {
		t.Fatalf("submit: %v", err)
	}
	out := <-ch
	if out.Err == nil || !strings.Contains(out.Err.Error(), "kernel fault") {
		t.Fatalf("outcome err = %v", out.Err)
	}
	// The worker survived the panic and keeps serving.
	cb2, ch2 := done()
	if _, err := s.Submit(&Task{
		Run:  func(ctx context.Context) (any, error) { return "alive", nil },
		Done: cb2,
	}); err != nil {
		t.Fatalf("post-panic submit: %v", err)
	}
	if out := <-ch2; out.Value != "alive" {
		t.Fatalf("post-panic outcome: %+v", out)
	}
}

func TestDrainingSheds(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 4})
	defer s.Stop()
	s.BeginDrain()
	_, err := s.Submit(&Task{
		Run:  func(ctx context.Context) (any, error) { return nil, nil },
		Done: func(Outcome) {},
	})
	var se *ShedError
	if !errors.As(err, &se) || se.Reason != ReasonDraining {
		t.Fatalf("err = %v, want draining shed", err)
	}
	if !s.Draining() {
		t.Fatalf("Draining() = false after BeginDrain")
	}
}

// TestStopFlushesQueue: Stop resolves every queued task with ErrStopped —
// no admitted task is ever lost — then waits for running work.
func TestStopFlushesQueue(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 8})

	block := make(chan struct{})
	blockerDone, blockerCh := done()
	s.Submit(&Task{
		Run:  func(ctx context.Context) (any, error) { <-block; return nil, nil },
		Done: blockerDone,
	})
	waitFor(t, "worker busy", func() bool { return s.Stats().Running == 1 })

	const queued = 5
	outcomes := make(chan Outcome, queued)
	for i := 0; i < queued; i++ {
		if _, err := s.Submit(&Task{
			Run:  func(ctx context.Context) (any, error) { t.Error("flushed task ran"); return nil, nil },
			Done: func(o Outcome) { outcomes <- o },
		}); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}

	stopped := make(chan struct{})
	go func() { s.Stop(); close(stopped) }()
	for i := 0; i < queued; i++ {
		out := <-outcomes
		if !errors.Is(out.Err, ErrStopped) {
			t.Fatalf("flushed outcome %d: err = %v, want ErrStopped", i, out.Err)
		}
	}
	select {
	case <-stopped:
		t.Fatalf("Stop returned while a task was still running")
	default:
	}
	close(block)
	<-blockerCh
	<-stopped

	// Post-Stop submissions shed as draining.
	_, err := s.Submit(&Task{Run: func(ctx context.Context) (any, error) { return nil, nil }})
	var se *ShedError
	if !errors.As(err, &se) || se.Reason != ReasonDraining {
		t.Fatalf("post-stop submit: err = %v", err)
	}
}

// TestSubmitStress hammers a small pool from many goroutines with mixed
// priorities, keys, and cancellation, asserting the cardinal invariant:
// every admitted task's Done fires exactly once.
func TestSubmitStress(t *testing.T) {
	s := New(Config{Workers: 4, QueueDepth: 32})
	var admitted, resolved atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				ctx, cancel := context.WithCancel(context.Background())
				task := &Task{
					Tenant:   fmt.Sprintf("t%d", g%3),
					Priority: Priority(i % numPriorities),
					Ctx:      ctx,
					Run: func(ctx context.Context) (any, error) {
						time.Sleep(time.Duration(i%3) * 100 * time.Microsecond)
						return i, nil
					},
					Done: func(Outcome) { resolved.Add(1) },
				}
				if i%7 == 0 {
					task.Key = fmt.Sprintf("key%d", i%5)
				}
				if _, err := s.Submit(task); err == nil {
					admitted.Add(1)
				}
				if i%11 == 0 {
					cancel()
				} else {
					defer cancel()
				}
			}
		}(g)
	}
	wg.Wait()
	s.Stop()
	if a, r := admitted.Load(), resolved.Load(); a != r {
		t.Fatalf("admitted %d tasks but resolved %d", a, r)
	}
}
