package httpapi

import (
	"fmt"
	"math/rand"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nulpa/internal/sched"
)

// TestChaosUnderLoadStorm is the chaos-under-load suite: the PR-4 fault
// injector runs *under* overload. A storm of mixed-priority submissions —
// fault-injected ν-LPA runs, clean detections, panicking detectors, random
// cancels — hits a small device pool while graceful drain begins mid-storm.
// The assertions are the serving plane's survival invariants:
//
//   - no lost jobs: every admitted (202) submission reaches a terminal state;
//   - honest shedding: every rejection is 429/503 with a Retry-After;
//   - graceful drain: after BeginDrain, submissions shed with 503 while
//     status reads keep serving;
//   - bounded goroutines: the storm does not leak runners;
//   - no deadlock: the scheduler's admitted and completed counts meet;
//   - balanced ledger: /metrics counts every submitted job finished and
//     no job, task or Detect call still open (checkLedger).
func TestChaosUnderLoadStorm(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos storm runs in the chaos suite, not -short")
	}
	registerTestDetectors()
	baseline := runtime.NumGoroutine()
	ts, srv := newTestServerOpts(t, WithScheduler(sched.Config{Workers: 4, QueueDepth: 12}))

	const submitters = 8
	const perSubmitter = 8
	var (
		mu       sync.Mutex
		admitted []int
		shedBad  atomic.Int64 // rejections with a wrong code or no Retry-After
		sheds    atomic.Int64
	)
	specFor := func(g, i int) string {
		prio := [...]string{"high", "normal", "low"}[i%3]
		switch i % 4 {
		case 0: // fault-injected ν-LPA: recovery machinery under load
			return fmt.Sprintf(`{"algo":"nulpa","graph":{"gen":"planted","n":300,"deg":8,"seed":%d},"workers":2,"priority":%q,"faults":"kernel=0.05,bitflip=0.02,seed=%d"}`,
				g*100+i, prio, g*10+i+1)
		case 1: // panicking detector: worker isolation under load
			return fmt.Sprintf(`{"algo":"test-panic","graph":{"gen":"er","n":64,"deg":4,"seed":%d},"priority":%q}`,
				g*100+i, prio)
		default: // clean detection
			return fmt.Sprintf(`{"algo":"flpa","graph":{"gen":"er","n":256,"deg":6,"seed":%d},"priority":%q}`,
				g*100+i, prio)
		}
	}

	var wg sync.WaitGroup
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < perSubmitter; i++ {
				resp, body := postJobRaw(t, ts.URL, specFor(g, i),
					map[string]string{"X-Tenant": fmt.Sprintf("tenant-%d", g)})
				switch resp.StatusCode {
				case http.StatusAccepted:
					var id int
					fmt.Sscanf(body[strings.Index(body, `"id"`)+6:], "%d", &id)
					mu.Lock()
					admitted = append(admitted, id)
					mu.Unlock()
					if i%5 == 0 {
						req, _ := http.NewRequest(http.MethodDelete,
							fmt.Sprintf("%s/jobs/%d", ts.URL, id), nil)
						if r, err := http.DefaultClient.Do(req); err == nil {
							r.Body.Close()
						}
					}
				case http.StatusTooManyRequests, http.StatusServiceUnavailable:
					sheds.Add(1)
					if resp.Header.Get("Retry-After") == "" {
						shedBad.Add(1)
					}
				default:
					shedBad.Add(1)
					t.Errorf("submitter %d: unexpected status %d: %s", g, resp.StatusCode, body)
				}
				time.Sleep(time.Duration(rng.Intn(8)) * time.Millisecond)
			}
		}(g)
	}

	// Graceful drain begins mid-storm: readiness drops, late submissions
	// shed with 503, but the storm's admitted jobs keep unwinding.
	time.Sleep(120 * time.Millisecond)
	srv.BeginDrain()
	if code, _ := get(t, ts.URL+"/readyz"); code != http.StatusServiceUnavailable {
		t.Errorf("readyz mid-drain = %d, want 503", code)
	}
	resp, body := postJobRaw(t, ts.URL, slowSpec(9999), nil)
	if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(body, sched.ReasonDraining) {
		t.Errorf("submit mid-drain = %d %s, want 503 draining", resp.StatusCode, body)
	}
	wg.Wait()

	// No lost jobs: every admitted submission reaches a terminal state.
	srv.CancelAll()
	mu.Lock()
	ids := append([]int(nil), admitted...)
	mu.Unlock()
	for _, id := range ids {
		st := pollUntilTerminal(t, ts.URL, id, 30*time.Second)
		if !st.State.Terminal() {
			t.Fatalf("job %d not terminal: %+v", id, st)
		}
	}
	if n := shedBad.Load(); n != 0 {
		t.Fatalf("%d shed responses were malformed", n)
	}

	// The scheduler's ledger balances: every admitted task completed.
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := srv.SchedulerStats()
		if st.Completed == st.Admitted && st.Running == 0 && st.Queued == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("scheduler did not quiesce: %+v", st)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Bounded goroutines: after the storm drains, the process is back near
	// its baseline — the pool's workers plus slack for the HTTP server's
	// transient handlers, not one goroutine per submitted job.
	deadline = time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= baseline+4+16 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines after storm = %d, baseline %d", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(20 * time.Millisecond)
	}
	checkLedger(t, ts.URL)
	t.Logf("storm: %d admitted, %d shed, scheduler %+v",
		len(ids), sheds.Load(), srv.SchedulerStats())
}
