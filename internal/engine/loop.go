package engine

import (
	"context"
	"time"

	"nulpa/internal/telemetry"
	"nulpa/internal/trace"
)

// LoopConfig parameterizes the shared convergence loop.
type LoopConfig struct {
	// MaxIterations caps the loop; exhausting it leaves Converged false.
	MaxIterations int
	// Threshold is the absolute convergence bound: the loop stops once an
	// iteration's net ΔN falls strictly below it (detectors derive it from
	// their tolerance, e.g. τ·|V|, or use 1 for "no change at all").
	// A Threshold of zero (or below) disables the test — no ΔN is strictly
	// below it — so only Stop, an iteration error, or MaxIterations can end
	// the loop.
	Threshold float64
	// Ctx, when non-nil, is checked before every iteration; a canceled or
	// expired context ends the loop with ErrCanceled/ErrDeadline in
	// LoopResult.Err. Cancellation is therefore observed within one
	// iteration's worth of wall time. It also carries the run's trace span,
	// under which each iteration opens a child span.
	Ctx context.Context
	// Profiler, when non-nil, receives each iteration's record as it
	// completes.
	Profiler *telemetry.Recorder
}

// IterOutcome is what one iteration of a detector reports back to Loop.
type IterOutcome struct {
	// Record carries the iteration's telemetry. Loop stamps Iter and
	// Threshold, and fills Duration with the measured body wall time when
	// the detector leaves it zero.
	Record telemetry.IterRecord
	// ForceContinue suppresses the threshold test for this iteration —
	// ν-LPA's Pick-Less rounds intentionally move few vertices and must not
	// count as convergence.
	ForceContinue bool
	// Stop ends the loop immediately, marking the run converged (e.g. a
	// detector-specific fixed-point rule).
	Stop bool
	// Err aborts the loop: the iteration failed in a way the detector could
	// not recover from (kernel fault after retries, mid-iteration
	// cancellation). The loop records the iteration's telemetry, stops
	// without marking convergence, and surfaces the error in LoopResult.Err.
	Err error
	// Labels is the full label assignment after this iteration, for the
	// quality telemetry plane. Detectors set it to their live label array
	// (Loop only reads it, synchronously, before the next iteration); nil
	// skips quality accounting for the iteration. Costs nothing when no
	// quality observer is attached to the profiler.
	Labels []uint32
}

// LoopResult is the bookkeeping Loop accumulates for the detector's result.
type LoopResult struct {
	Iterations int
	Converged  bool
	Trace      []telemetry.IterRecord
	Duration   time.Duration
	// Err is non-nil when the loop ended early on cancellation, deadline
	// expiry, or an iteration error; the detector must propagate it.
	Err error
}

// Loop drives the tolerance-based convergence loop every synchronous-round
// implementation previously hand-rolled: per-iteration timing, telemetry
// emission (trace plus optional live profiler), and the ΔN-below-threshold
// stopping rule. body performs one full iteration and reports its outcome.
//
// body receives a context derived from cfg.Ctx that carries the iteration's
// trace span, so device work launched from it (simt kernel launches) nests
// under the iteration in the exported trace tree. Detectors that do no
// context-aware work may ignore it.
func Loop(cfg LoopConfig, body func(ctx context.Context, iter int) IterOutcome) LoopResult {
	var lr LoopResult
	ctx := cfg.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	start := time.Now()
	for iter := 0; iter < cfg.MaxIterations; iter++ {
		if cfg.Ctx != nil {
			if err := cfg.Ctx.Err(); err != nil {
				lr.Err = CtxErr(err)
				mInterrupts.Inc()
				break
			}
		}
		ictx, ispan := trace.Child(ctx, "iteration")
		iterStart := time.Now()
		out := body(ictx, iter)
		rec := out.Record
		rec.Iter = iter
		rec.Threshold = cfg.Threshold
		if rec.Duration == 0 {
			rec.Duration = time.Since(iterStart)
		}
		// The quality record rides inside the iteration record, so every
		// consumer of the record (trace, recorder, health monitor) sees it.
		if cfg.Profiler != nil && out.Labels != nil && out.Err == nil {
			if rec.Quality = cfg.Profiler.ObserveQuality(iter, out.Labels); rec.Quality != nil {
				recordQualityMetrics(ictx, *rec.Quality)
			}
		}
		// The span names its iteration; the counts stay in the record.
		if ispan != nil {
			ispan.SetInt("iter", int64(iter))
			if out.Err != nil {
				ispan.SetString("error", out.Err.Error())
			}
			ispan.End()
		}
		if cfg.Profiler != nil {
			cfg.Profiler.RecordIteration(rec)
		}
		mIterations.Inc()
		mMoves.Add(rec.DeltaN)
		mIterSeconds.Observe(rec.Duration.Seconds())
		lr.Trace = append(lr.Trace, rec)
		lr.Iterations = iter + 1
		if out.Err != nil {
			lr.Err = out.Err
			if IsInterrupt(out.Err) {
				mInterrupts.Inc()
			}
			break
		}
		if out.Stop {
			lr.Converged = true
			break
		}
		if !out.ForceContinue && float64(rec.DeltaN) < cfg.Threshold {
			lr.Converged = true
			break
		}
	}
	lr.Duration = time.Since(start)
	return lr
}

// Result is the end of a detector built on Loop: the loop's error if it
// ended early, else a Result of the final labels carrying the loop's
// iteration count, convergence, trace and duration.
func (lr LoopResult) Result(labels []uint32) (*Result, error) {
	if lr.Err != nil {
		return nil, lr.Err
	}
	res := NewResult(labels)
	res.Iterations, res.Converged = lr.Iterations, lr.Converged
	res.Trace, res.Duration = lr.Trace, lr.Duration
	return res, nil
}
