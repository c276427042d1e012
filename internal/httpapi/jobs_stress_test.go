package httpapi

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nulpa/internal/sched"
)

// TestJobStoreStressRace interleaves submit, cancel, eviction, listing, and
// drain on one store under the race detector, then asserts the store's
// invariants: every admitted job lands in a terminal state exactly once and
// never leaves it, and the eviction cap holds after the dust settles.
func TestJobStoreStressRace(t *testing.T) {
	registerTestDetectors()
	const cap = 8
	srv := NewServer(WithScheduler(sched.Config{Workers: 4, QueueDepth: 64}))
	srv.jobs.maxFinished = cap
	defer srv.Close()

	const submitters = 6
	const perSubmitter = 20
	var (
		mu       sync.Mutex
		admitted []*job
		shed     atomic.Int64
	)
	var wg sync.WaitGroup
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perSubmitter; i++ {
				spec := JobSpec{
					Algo:     "flpa",
					Graph:    GraphSpec{Gen: "er", N: 64, Deg: 4, Seed: int64(g*1000 + i)},
					Priority: [...]string{"high", "normal", "low"}[i%3],
				}
				if i%9 == 0 {
					spec.Algo = "test-panic"
				}
				j, err := srv.jobs.submit(spec, fmt.Sprintf("t%d", g))
				if err != nil {
					shed.Add(1)
					continue
				}
				mu.Lock()
				admitted = append(admitted, j)
				mu.Unlock()
				switch i % 4 {
				case 0:
					j.requestCancel()
				case 1:
					srv.jobs.list()
				case 2:
					srv.jobs.get(j.id)
				}
			}
		}(g)
	}
	// Concurrent listers hammer the read paths while the submitters churn.
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
					srv.jobs.list()
					time.Sleep(time.Millisecond)
				}
			}
		}()
	}
	// Drain kicks in mid-stress: later submissions shed, earlier ones still
	// resolve.
	time.Sleep(30 * time.Millisecond)
	srv.BeginDrain()
	wg.Wait()
	close(stop)
	readers.Wait()

	// Every admitted job reaches a terminal state (directly on the job
	// records — eviction may remove them from the store, never un-finish
	// them), and once terminal the state sticks.
	deadline := time.Now().Add(30 * time.Second)
	final := map[int]JobState{}
	for _, j := range admitted {
		for {
			st := j.status()
			if st.State.Terminal() {
				final[j.id] = st.State
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("job %d stuck in %q", j.id, st.State)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	time.Sleep(20 * time.Millisecond)
	for _, j := range admitted {
		if st := j.status(); st.State != final[j.id] {
			t.Fatalf("job %d left terminal state %q for %q", j.id, final[j.id], st.State)
		}
	}
	// The eviction cap holds: all jobs are terminal now, so the store keeps
	// at most cap of them (one final noteFinished pass settles stragglers).
	srv.jobs.noteFinished()
	srv.jobs.mu.Lock()
	n := len(srv.jobs.jobs)
	srv.jobs.mu.Unlock()
	if n > cap {
		t.Fatalf("store retains %d terminal jobs, cap %d", n, cap)
	}
	if len(admitted)+int(shed.Load()) != submitters*perSubmitter {
		t.Fatalf("accounting: %d admitted + %d shed != %d submitted",
			len(admitted), shed.Load(), submitters*perSubmitter)
	}
}
