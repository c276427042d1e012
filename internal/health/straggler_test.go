package health_test

import (
	"context"
	"testing"
	"time"

	"nulpa/internal/engine"
	"nulpa/internal/health"
	"nulpa/internal/telemetry"
)

// TestShardLoopStragglerAttribution drives engine.ShardLoop with one
// artificially slow shard and asserts both halves of the accounting
// contract: the barrier wait is the idle time of the fast shards (not the
// slow one), and the health monitor — attached through the recorder's sink,
// exactly as a real run attaches it — flags the slow shard as the straggler.
func TestShardLoopStragglerAttribution(t *testing.T) {
	const (
		shards   = 4
		slow     = 2
		slowNap  = 30 * time.Millisecond
		fastNap  = 1 * time.Millisecond
		maxIters = 9 // more than the monitor's 8-frame window, so its full-window checks are armed
	)
	rec := telemetry.NewRecorder()
	mon := health.New(health.Config{Vertices: 1000})
	defer mon.Close()
	tap := &superstepTap{Monitor: mon}
	rec.SetSink(tap)

	lr := engine.ShardLoop(engine.ShardLoopConfig{
		LoopConfig: engine.LoopConfig{MaxIterations: maxIters, Threshold: 0, Profiler: rec},
		Shards:     shards,
	}, func(_ context.Context, iter, s int) engine.IterOutcome {
		if s == slow {
			time.Sleep(slowNap)
		} else {
			time.Sleep(fastNap)
		}
		// Decaying ΔN so the oscillation detector stays quiet and the
		// straggler verdict is what surfaces.
		return engine.IterOutcome{Record: telemetry.IterRecord{
			DeltaN: 256 >> iter, Moves: 256 >> iter, EdgeVisits: 1000,
		}}
	}, func(_ context.Context, _ int) (int64, error) {
		return 1, nil
	})
	if lr.Err != nil {
		t.Fatal(lr.Err)
	}
	if lr.Iterations != maxIters {
		t.Fatalf("iterations = %d, want %d", lr.Iterations, maxIters)
	}

	// Barrier-wait attribution: Σ(max − dᵢ) counts the fast shards' idle
	// time. Three fast shards each wait ≈ slowNap−fastNap, so the total must
	// exceed 2×(slowNap−fastNap) even under scheduler noise — and can never
	// reach shards×slowNap (the slow shard itself contributes no wait).
	for i, w := range tap.waits {
		min := 2 * (slowNap - fastNap)
		max := time.Duration(shards) * maxDur(tap.durs[i])
		if w < min {
			t.Errorf("superstep %d: barrier wait %v, want >= %v (fast shards idle at the barrier)", i, w, min)
		}
		if w >= max {
			t.Errorf("superstep %d: barrier wait %v >= %v — wait attributed to the slow shard too", i, w, max)
		}
	}

	// The monitor must name the slow shard.
	frames := mon.Frames()
	if len(frames) != maxIters {
		t.Fatalf("monitor saw %d frames, want %d", len(frames), maxIters)
	}
	last := frames[len(frames)-1]
	if last.Shards != shards {
		t.Fatalf("frame shards = %d, want %d", last.Shards, shards)
	}
	if last.StragglerShard != slow {
		t.Fatalf("straggler shard = %d, want %d (skew %.2f)", last.StragglerShard, slow, last.StragglerSkew)
	}
	if last.StragglerSkew < 2 {
		t.Fatalf("straggler skew = %.2f, want >= 2 (30ms vs 1ms shards)", last.StragglerSkew)
	}
	if last.BarrierWaitShare <= 0 || last.BarrierWaitShare > 1 {
		t.Fatalf("barrier wait share = %v, want in (0, 1]", last.BarrierWaitShare)
	}
	if last.State != health.StateStraggling {
		t.Fatalf("state = %s, want %s", last.State, health.StateStraggling)
	}
}

// superstepTap is the monitor as a run's sink, keeping a copy of each
// superstep's shard durations and barrier wait on the way through.
type superstepTap struct {
	*health.Monitor
	durs  [][]time.Duration
	waits []time.Duration
}

func (t *superstepTap) ObserveSuperstep(iter int, durs []time.Duration, wait time.Duration, exchanged int64) {
	t.durs = append(t.durs, append([]time.Duration(nil), durs...))
	t.waits = append(t.waits, wait)
	t.Monitor.ObserveSuperstep(iter, durs, wait, exchanged)
}

func maxDur(durs []time.Duration) time.Duration {
	var m time.Duration
	for _, d := range durs {
		if d > m {
			m = d
		}
	}
	return m
}
