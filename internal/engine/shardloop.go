package engine

import (
	"context"
	"sync"
	"time"

	"nulpa/internal/trace"
)

// ShardLoopConfig parameterizes the multi-device BSP convergence loop.
type ShardLoopConfig struct {
	LoopConfig
	// Shards is the number of concurrent per-superstep bodies; 0 and 1 both
	// mean one.
	Shards int
	// GatherLabels, when non-nil, returns the global label assignment after
	// a superstep (the sharded backend scatters owned labels into a reused
	// buffer). It is consulted only when the profiler has a quality observer
	// attached, so supersteps pay no gather cost otherwise; the result feeds
	// the quality plane exactly like a single-device iteration's labels.
	GatherLabels func() []uint32
}

// ShardLoop drives the BSP superstep loop of a sharded multi-device run:
// every iteration fans the body out to all shards concurrently (each under
// its own "shard-iteration" trace span), joins at the barrier, then runs the
// halo exchange (under a "halo-exchange" span) before the convergence test.
// A superstep whose exchange succeeds counts in nulpa_shard_supersteps_total
// and nulpa_shard_barrier_wait_seconds.
// Outcomes aggregate across shards — counters sum, ForceContinue holds if
// any shard demands it, Stop only if every shard does — so the shared
// tolerance rule applies to the global ΔN exactly as in the single-device
// Loop. A failing shard aborts the superstep; typed interrupts win over
// algorithmic errors so cancellation stays recognizable.
//
// A single shard is a plain Loop: its body runs inline on the iteration
// context, its outcome (labels included) is the iteration's, and there is
// no barrier — no goroutine, no shard or exchange span, no superstep record
// or metric, and exchange and GatherLabels are never called.
func ShardLoop(cfg ShardLoopConfig,
	body func(ctx context.Context, iter, shard int) IterOutcome,
	exchange func(ctx context.Context, iter int) (int64, error)) LoopResult {
	if cfg.Shards <= 1 {
		return Loop(cfg.LoopConfig, func(ctx context.Context, iter int) IterOutcome {
			return body(ctx, iter, 0)
		})
	}
	return Loop(cfg.LoopConfig, func(ctx context.Context, iter int) IterOutcome {
		outs := make([]IterOutcome, cfg.Shards)
		durs := make([]time.Duration, cfg.Shards)
		var wg sync.WaitGroup
		for s := 0; s < cfg.Shards; s++ {
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				sctx, sspan := trace.Child(ctx, "shard-iteration")
				st := time.Now()
				out := body(sctx, iter, s)
				durs[s] = time.Since(st)
				if sspan != nil {
					sspan.SetInt("shard", int64(s))
					if out.Err != nil {
						sspan.SetString("error", out.Err.Error())
					}
					sspan.End()
				}
				outs[s] = out
			}(s)
		}
		wg.Wait()
		agg := mergeOutcomes(outs)
		wait := barrierWait(durs)
		var exchanged int64
		if agg.Err == nil && !agg.Stop && exchange != nil {
			ectx, espan := trace.Child(ctx, "halo-exchange")
			var err error
			exchanged, err = exchange(ectx, iter)
			if espan != nil {
				espan.SetInt("iter", int64(iter))
				espan.SetInt("exchanged", exchanged)
				if err != nil {
					espan.SetString("error", err.Error())
				}
				espan.End()
			}
			if err != nil {
				agg.Err = err
			} else {
				mSupersteps.Inc()
				mBarrierWait.Observe(wait.Seconds())
			}
		}
		// The superstep feed fires on every superstep — including the
		// stopping and the failing one, whose shard timings the flight
		// recorder wants most — and lands before Loop records the
		// iteration, so a sink can fold shard skew into the same frame.
		if cfg.Profiler != nil {
			cfg.Profiler.RecordSuperstep(iter, durs, wait, exchanged)
			// Per-shard label arrays never reach the quality plane (they
			// carry ghosts and local indexing); the gathered global view
			// does, post-exchange, so halo staleness shows up in Q.
			if agg.Err == nil && cfg.GatherLabels != nil && cfg.Profiler.WantsQuality() {
				agg.Labels = cfg.GatherLabels()
			}
		}
		return agg
	})
}

// mergeOutcomes folds per-shard outcomes into the superstep's aggregate:
// records add (IterRecord.Add: counters sum, phase flags OR). Kernel
// durations add up to total device time across shards (they run
// concurrently, so this exceeds wall time by design — it is the work
// ledger, not the critical path), and Duration stays zero so Loop stamps
// the superstep's wall time. The first interrupt-typed error wins;
// otherwise the first error by shard order, keeping aggregation
// deterministic.
func mergeOutcomes(outs []IterOutcome) IterOutcome {
	agg := IterOutcome{Stop: len(outs) > 0}
	for _, out := range outs {
		agg.Record = agg.Record.Add(out.Record)
		agg.ForceContinue = agg.ForceContinue || out.ForceContinue
		agg.Stop = agg.Stop && out.Stop
		if out.Err != nil {
			if agg.Err == nil || (IsInterrupt(out.Err) && !IsInterrupt(agg.Err)) {
				agg.Err = out.Err
			}
		}
	}
	if agg.Err != nil {
		agg.Stop = false
	}
	return agg
}

// barrierWait is the BSP stall metric: the idle time shards spend at the
// superstep barrier waiting for the slowest peer, Σ(max duration − dᵢ).
func barrierWait(durs []time.Duration) time.Duration {
	var max time.Duration
	for _, d := range durs {
		if d > max {
			max = d
		}
	}
	var wait time.Duration
	for _, d := range durs {
		wait += max - d
	}
	return wait
}
