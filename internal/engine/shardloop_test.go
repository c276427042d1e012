package engine

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"nulpa/internal/telemetry"
)

func TestShardLoopAggregatesAndConverges(t *testing.T) {
	// Three shards, each moving fewer vertices per superstep; the loop must
	// stop on the summed ΔN, not any single shard's.
	deltas := [][]int64{{10, 4, 0}, {8, 2, 0}, {6, 0, 0}}
	var exchanges int32
	lr := ShardLoop(ShardLoopConfig{
		LoopConfig: LoopConfig{MaxIterations: 10, Threshold: 5},
		Shards:     3,
	}, func(_ context.Context, iter, shard int) IterOutcome {
		return IterOutcome{Record: telemetry.IterRecord{DeltaN: deltas[shard][iter], Moves: deltas[shard][iter]}}
	}, func(_ context.Context, iter int) (int64, error) {
		atomic.AddInt32(&exchanges, 1)
		return int64(iter), nil
	})
	if lr.Err != nil {
		t.Fatal(lr.Err)
	}
	// Superstep 0: ΔN=24, superstep 1: ΔN=6, superstep 2: ΔN=0 < 5 → stop.
	if !lr.Converged || lr.Iterations != 3 {
		t.Fatalf("converged=%v iterations=%d", lr.Converged, lr.Iterations)
	}
	if lr.Trace[0].DeltaN != 24 || lr.Trace[1].DeltaN != 6 {
		t.Fatalf("aggregate deltas = %d,%d want 24,6", lr.Trace[0].DeltaN, lr.Trace[1].DeltaN)
	}
	if exchanges != 3 {
		t.Fatalf("exchange ran %d times, want 3", exchanges)
	}
}

func TestShardLoopForceContinueAnyStopAll(t *testing.T) {
	// One shard forcing continuation keeps the superstep alive even though
	// the aggregate ΔN is below threshold.
	iters := 0
	lr := ShardLoop(ShardLoopConfig{
		LoopConfig: LoopConfig{MaxIterations: 4, Threshold: 100},
		Shards:     2,
	}, func(_ context.Context, iter, shard int) IterOutcome {
		if shard == 0 {
			iters = iter + 1
		}
		return IterOutcome{ForceContinue: shard == 1 && iter == 0}
	}, nil)
	if lr.Converged && lr.Iterations == 1 {
		t.Fatal("single shard's ForceContinue was ignored")
	}
	if iters < 2 {
		t.Fatalf("loop ran %d supersteps, want at least 2", iters)
	}

	// Stop requires unanimity: one shard stopping does not end the run.
	lr = ShardLoop(ShardLoopConfig{
		LoopConfig: LoopConfig{MaxIterations: 3, Threshold: 0},
		Shards:     2,
	}, func(_ context.Context, iter, shard int) IterOutcome {
		return IterOutcome{Stop: shard == 0}
	}, nil)
	if lr.Converged {
		t.Fatal("one shard's Stop converged the whole run")
	}
	// Unanimous Stop converges immediately.
	lr = ShardLoop(ShardLoopConfig{
		LoopConfig: LoopConfig{MaxIterations: 3, Threshold: 0},
		Shards:     2,
	}, func(_ context.Context, iter, shard int) IterOutcome {
		return IterOutcome{Stop: true}
	}, nil)
	if !lr.Converged || lr.Iterations != 1 {
		t.Fatalf("unanimous stop: converged=%v iterations=%d", lr.Converged, lr.Iterations)
	}
}

func TestShardLoopErrorAbortsBeforeExchange(t *testing.T) {
	boom := errors.New("shard 1 kernel fault")
	exchanged := false
	lr := ShardLoop(ShardLoopConfig{
		LoopConfig: LoopConfig{MaxIterations: 5, Threshold: 0},
		Shards:     3,
	}, func(_ context.Context, iter, shard int) IterOutcome {
		if shard == 1 {
			return IterOutcome{Err: boom}
		}
		return IterOutcome{Record: telemetry.IterRecord{DeltaN: 1}}
	}, func(_ context.Context, iter int) (int64, error) {
		exchanged = true
		return 0, nil
	})
	if !errors.Is(lr.Err, boom) {
		t.Fatalf("err = %v", lr.Err)
	}
	if exchanged {
		t.Error("halo exchange ran after a shard failure")
	}
	if lr.Converged {
		t.Error("failed run marked converged")
	}
}

func TestShardLoopInterruptWinsOverShardError(t *testing.T) {
	lr := ShardLoop(ShardLoopConfig{
		LoopConfig: LoopConfig{MaxIterations: 2, Threshold: 0},
		Shards:     2,
	}, func(_ context.Context, iter, shard int) IterOutcome {
		if shard == 0 {
			return IterOutcome{Err: errors.New("algorithmic failure")}
		}
		return IterOutcome{Err: ErrCanceled}
	}, nil)
	if !errors.Is(lr.Err, ErrCanceled) {
		t.Fatalf("err = %v, want the typed interrupt to win", lr.Err)
	}
}

func TestShardLoopExchangeErrorPropagates(t *testing.T) {
	boom := errors.New("exchange failed")
	lr := ShardLoop(ShardLoopConfig{
		LoopConfig: LoopConfig{MaxIterations: 5, Threshold: 0},
		Shards:     2,
	}, func(_ context.Context, iter, shard int) IterOutcome {
		return IterOutcome{Record: telemetry.IterRecord{DeltaN: 1}}
	}, func(_ context.Context, iter int) (int64, error) {
		return 0, boom
	})
	if !errors.Is(lr.Err, boom) {
		t.Fatalf("err = %v", lr.Err)
	}
	if lr.Iterations != 1 {
		t.Fatalf("iterations = %d, want 1", lr.Iterations)
	}
}

// superstepLog is an IterSink that keeps the supersteps it is fed.
type superstepLog struct {
	shards []int
	waits  []time.Duration
	counts []int64
}

func (l *superstepLog) ObserveIteration(telemetry.IterRecord) {}
func (l *superstepLog) ObserveSuperstep(_ int, durs []time.Duration, wait time.Duration, exchanged int64) {
	l.shards = append(l.shards, len(durs))
	l.waits = append(l.waits, wait)
	l.counts = append(l.counts, exchanged)
}

// TestShardLoopOnSuperstep pins the one superstep feed: every superstep
// reaches the profiler's sink with its shard durations, barrier wait and
// halo count, and a successful exchange advances the superstep metrics.
func TestShardLoopOnSuperstep(t *testing.T) {
	rec, log := telemetry.NewRecorder(), &superstepLog{}
	rec.SetSink(log)
	steps0, waits0 := mSupersteps.Value(), mBarrierWait.Count()
	lr := ShardLoop(ShardLoopConfig{
		LoopConfig: LoopConfig{MaxIterations: 3, Threshold: 0, Profiler: rec},
		Shards:     2,
	}, func(_ context.Context, iter, shard int) IterOutcome {
		if shard == 1 {
			time.Sleep(time.Millisecond)
		}
		return IterOutcome{Record: telemetry.IterRecord{DeltaN: 1}}
	}, func(_ context.Context, iter int) (int64, error) {
		return 7, nil
	})
	if lr.Err != nil {
		t.Fatal(lr.Err)
	}
	if len(log.waits) != 3 {
		t.Fatalf("sink saw %d supersteps, want 3", len(log.waits))
	}
	for i := range log.waits {
		if log.shards[i] != 2 {
			t.Errorf("superstep %d: %d shard durations, want 2", i, log.shards[i])
		}
		if log.waits[i] <= 0 {
			t.Errorf("superstep %d: barrier wait %v, want > 0 (unbalanced shards)", i, log.waits[i])
		}
		if log.counts[i] != 7 {
			t.Errorf("superstep %d: exchanged %d, want 7", i, log.counts[i])
		}
	}
	if d := mSupersteps.Value() - steps0; d != 3 {
		t.Errorf("nulpa_shard_supersteps_total advanced by %d, want 3", d)
	}
	if d := mBarrierWait.Count() - waits0; d != 3 {
		t.Errorf("nulpa_shard_barrier_wait_seconds observed %d supersteps, want 3", d)
	}
}

func TestShardLoopCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	lr := ShardLoop(ShardLoopConfig{
		LoopConfig: LoopConfig{MaxIterations: 5, Threshold: 0, Ctx: ctx},
		Shards:     2,
	}, func(_ context.Context, iter, shard int) IterOutcome {
		t.Error("body ran under a pre-canceled context")
		return IterOutcome{}
	}, nil)
	if !errors.Is(lr.Err, ErrCanceled) {
		t.Fatalf("err = %v", lr.Err)
	}
}

func TestMergeOutcomesSums(t *testing.T) {
	a := IterOutcome{Record: telemetry.IterRecord{Moves: 3, Reverts: 1, DeltaN: 2, EdgeVisits: 100, ActiveVertices: 10, HashProbes: 5, PickLess: true}}
	b := IterOutcome{Record: telemetry.IterRecord{Moves: 4, DeltaN: 4, EdgeVisits: 50, ActiveVertices: 20, HashProbes: 7}}
	agg := mergeOutcomes([]IterOutcome{a, b})
	r := agg.Record
	if r.Moves != 7 || r.Reverts != 1 || r.DeltaN != 6 || r.EdgeVisits != 150 || r.ActiveVertices != 30 || r.HashProbes != 12 {
		t.Fatalf("bad aggregate: %+v", r)
	}
	if !r.PickLess {
		t.Error("PickLess flag lost in aggregation")
	}
}
