package engine_test

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"nulpa/internal/engine"
	_ "nulpa/internal/engine/all"
	"nulpa/internal/faults"
	"nulpa/internal/gen"
	"nulpa/internal/graph"
	"nulpa/internal/nulpa"
	"nulpa/internal/simt"
)

// The chaos suite is the conformance contract under failure: every detector,
// driven with fault injection and cancellation, must either produce a valid
// partition or return a typed error — and must do so promptly. A watchdog
// turns a hang into a test failure instead of a stuck CI job, and a recover
// turns a panic into one.

// chaosWatchdog bounds one detector run. Generous, because chaos runs retry
// with backoff; a healthy run is orders of magnitude faster.
const chaosWatchdog = 60 * time.Second

// runGuarded executes one detection under the watchdog, converting panics to
// errors so the suite can assert "never panics" uniformly.
func runGuarded(t *testing.T, f func() (*engine.Result, error)) (*engine.Result, error) {
	t.Helper()
	type outcome struct {
		res *engine.Result
		err error
	}
	ch := make(chan outcome, 1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				ch <- outcome{nil, fmt.Errorf("detector panicked: %v", r)}
			}
		}()
		res, err := f()
		ch <- outcome{res, err}
	}()
	select {
	case o := <-ch:
		return o.res, o.err
	case <-time.After(chaosWatchdog):
		t.Fatalf("detector hung past the %v watchdog", chaosWatchdog)
		return nil, nil
	}
}

// chaosGraphs are the acceptance inputs: a skewed web-style graph and a
// social-style graph with community structure.
func chaosGraphs() map[string]*graph.CSR {
	web := gen.Web(gen.DefaultWeb(500, 8, 11))
	social, _ := gen.Social(gen.DefaultSocial(512, 8, 13))
	return map[string]*graph.CSR{"web": web, "social": social}
}

// typedChaosError reports whether err is one of the contract's typed
// failures — anything else (an untyped error, a panic) breaks conformance.
func typedChaosError(err error) bool {
	return errors.Is(err, engine.ErrCanceled) || errors.Is(err, engine.ErrDeadline)
}

// TestChaosNulpaFaultSchedule is the acceptance scenario: the simt backend
// under a fixed-seed 1% kernel-failure + 1% bit-flip schedule on the web and
// social graphs. Every run must end in a valid partition (recovery or
// fallback) or a typed error — across several fault seeds.
func TestChaosNulpaFaultSchedule(t *testing.T) {
	for gname, g := range chaosGraphs() {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", gname, seed), func(t *testing.T) {
				det, err := engine.MustGet("nulpa")
				if err != nil {
					t.Fatal(err)
				}
				nopt := nulpa.DefaultOptions()
				nopt.Device = simt.NewDevice(4)
				nopt.Faults = faults.New(faults.Spec{KernelFailRate: 0.01, BitFlipRate: 0.01, Seed: seed})
				opt := engine.DefaultOptions()
				opt.Extra = nopt

				res, err := runGuarded(t, func() (*engine.Result, error) { return det.Detect(g, opt) })
				if err != nil {
					if !typedChaosError(err) {
						t.Fatalf("untyped chaos error: %v", err)
					}
					return
				}
				checkPartition(t, g, res)
				if nres, ok := res.Extra.(*nulpa.Result); ok && nres.Degraded {
					t.Log("degraded to the direct configuration")
				}
			})
		}
	}
}

// TestChaosNulpaTotalFailure drives the recovery ladder end to end through
// the engine seam: with every launch failing, the registered detector must
// still return a valid partition via the direct-backend fallback.
func TestChaosNulpaTotalFailure(t *testing.T) {
	g := chaosGraphs()["web"]
	det, err := engine.MustGet("nulpa")
	if err != nil {
		t.Fatal(err)
	}
	nopt := nulpa.DefaultOptions()
	nopt.Device = simt.NewDevice(4)
	nopt.Faults = faults.New(faults.Spec{KernelFailRate: 1, Seed: 2})
	opt := engine.DefaultOptions()
	opt.Extra = nopt
	res, err := runGuarded(t, func() (*engine.Result, error) { return det.Detect(g, opt) })
	if err != nil {
		t.Fatalf("fallback should have absorbed a total simt failure, got %v", err)
	}
	checkPartition(t, g, res)
	nres, ok := res.Extra.(*nulpa.Result)
	if !ok || !nres.Degraded {
		t.Error("result does not carry the Degraded marker after a total simt failure")
	}
}

// TestChaosShardedFaultSchedule runs the multi-device backend under the
// acceptance fault schedule: the same injector on every shard device. Each
// run must end in a valid partition (per-shard recovery or fallback) or a
// typed error.
func TestChaosShardedFaultSchedule(t *testing.T) {
	for gname, g := range chaosGraphs() {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", gname, seed), func(t *testing.T) {
				det, err := engine.MustGet("nulpa-sharded")
				if err != nil {
					t.Fatal(err)
				}
				nopt := nulpa.DefaultShardedOptions()
				nopt.Faults = faults.New(faults.Spec{KernelFailRate: 0.01, BitFlipRate: 0.01, Seed: seed})
				opt := engine.DefaultOptions()
				opt.Extra = nopt

				res, err := runGuarded(t, func() (*engine.Result, error) { return det.Detect(g, opt) })
				if err != nil {
					if !typedChaosError(err) {
						t.Fatalf("untyped chaos error: %v", err)
					}
					return
				}
				checkPartition(t, g, res)
			})
		}
	}
}

// TestChaosShardedSingleShardRecovery is the sharded acceptance scenario:
// one shard's device faults, that shard alone rolls back to its checkpoint
// and retries, and its peers proceed without recording any recovery work.
func TestChaosShardedSingleShardRecovery(t *testing.T) {
	g := chaosGraphs()["social"]
	det, err := engine.MustGet("nulpa-sharded")
	if err != nil {
		t.Fatal(err)
	}
	recovered := false
	for seed := int64(1); seed <= 10 && !recovered; seed++ {
		nopt := nulpa.DefaultShardedOptions()
		nopt.Workers = 1
		nopt.ShardFaults = []*faults.Injector{
			nil,
			faults.New(faults.Spec{KernelFailRate: 0.2, Seed: seed}),
			nil,
			nil,
		}
		opt := engine.DefaultOptions()
		opt.Extra = nopt

		res, err := runGuarded(t, func() (*engine.Result, error) { return det.Detect(g, opt) })
		if err != nil {
			if !typedChaosError(err) {
				t.Fatalf("seed %d: untyped chaos error: %v", seed, err)
			}
			continue
		}
		checkPartition(t, g, res)
		nres, ok := res.Extra.(*nulpa.Result)
		if !ok {
			t.Fatal("result does not carry the nulpa.Result extra")
		}
		if nres.Degraded {
			continue // recovery budget exhausted this seed; try the next
		}
		for s, ss := range nres.ShardStats {
			if s != 1 && (ss.Rollbacks != 0 || ss.Retries != 0) {
				t.Fatalf("seed %d: clean shard %d recorded recovery work (%d rollbacks, %d retries)",
					seed, s, ss.Rollbacks, ss.Retries)
			}
		}
		if nres.ShardStats[1].Rollbacks > 0 {
			recovered = true
		}
	}
	if !recovered {
		t.Fatal("no seed produced a recovered single-shard rollback")
	}
}

// TestChaosCancellationConformance: with a pre-canceled context, every
// registered detector must return engine.ErrCanceled without running.
func TestChaosCancellationConformance(t *testing.T) {
	g := conformanceGraphs()["planted"]
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, name := range detectors(t) {
		t.Run(name, func(t *testing.T) {
			det, err := engine.MustGet(name)
			if err != nil {
				t.Fatal(err)
			}
			opt := engine.DefaultOptions()
			opt.Context = ctx
			res, err := runGuarded(t, func() (*engine.Result, error) { return det.Detect(g, opt) })
			if !errors.Is(err, engine.ErrCanceled) {
				t.Fatalf("err = %v, want engine.ErrCanceled", err)
			}
			if res != nil {
				t.Errorf("res = %+v, want nil on cancellation", res)
			}
		})
	}
}

// TestChaosDeadlineConformance: with an already-expired deadline, every
// registered detector must return engine.ErrDeadline.
func TestChaosDeadlineConformance(t *testing.T) {
	g := conformanceGraphs()["planted"]
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	time.Sleep(time.Millisecond)
	for _, name := range detectors(t) {
		t.Run(name, func(t *testing.T) {
			det, err := engine.MustGet(name)
			if err != nil {
				t.Fatal(err)
			}
			opt := engine.DefaultOptions()
			opt.Context = ctx
			_, err = runGuarded(t, func() (*engine.Result, error) { return det.Detect(g, opt) })
			if !errors.Is(err, engine.ErrDeadline) {
				t.Fatalf("err = %v, want engine.ErrDeadline", err)
			}
		})
	}
}

// TestChaosConcurrentCancel cancels every detector mid-run: the run must
// return promptly with either a legitimate result (it finished before the
// cancel landed) or the typed cancellation error — never a hang.
func TestChaosConcurrentCancel(t *testing.T) {
	g := chaosGraphs()["social"]
	for _, name := range detectors(t) {
		t.Run(name, func(t *testing.T) {
			det, err := engine.MustGet(name)
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			go func() {
				time.Sleep(2 * time.Millisecond)
				cancel()
			}()
			opt := engine.DefaultOptions()
			opt.Context = ctx
			res, err := runGuarded(t, func() (*engine.Result, error) { return det.Detect(g, opt) })
			switch {
			case err == nil:
				checkPartition(t, g, res) // finished under the wire: result must still be valid
			case errors.Is(err, engine.ErrCanceled):
				// the typed interrupt: fine
			default:
				t.Fatalf("err = %v, want nil or engine.ErrCanceled", err)
			}
		})
	}
}
