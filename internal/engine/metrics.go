package engine

import (
	"context"
	"fmt"
	"log/slog"
	"time"

	"nulpa/internal/graph"
	"nulpa/internal/metrics"
	"nulpa/internal/quality"
	"nulpa/internal/telemetry"
	"nulpa/internal/trace"
)

// Engine-level metrics. Loop feeds the iteration-grained series; the
// instrumented wrapper installed by Register feeds the run-grained families,
// so every detector reached through the registry is accounted for without any
// per-algorithm code. Counters and gauges are atomic — the cost on the run
// path is a handful of uncontended atomic ops per iteration, nothing per
// vertex or per edge.
var (
	mIterations = metrics.NewCounter("engine_iterations_total",
		"Convergence-loop iterations completed across all runs.")
	mMoves = metrics.NewCounter("engine_moves_total",
		"Vertices that changed label, summed over iterations (ΔN).")
	mIterSeconds = metrics.NewHistogram("engine_iteration_seconds",
		"Wall time of one convergence-loop iteration.",
		metrics.ExpBuckets(1e-5, 4, 14))
	mRuns = metrics.NewCounterVec("engine_runs_total",
		"Completed Detect calls, per detector.", "detector")
	mRunErrors = metrics.NewCounterVec("engine_run_errors_total",
		"Detect calls that returned an error, per detector.", "detector")
	mRunSeconds = metrics.NewHistogramVec("engine_run_seconds",
		"Wall time of one Detect call.", "detector",
		metrics.ExpBuckets(1e-3, 4, 12))
	mConverged = metrics.NewCounterVec("engine_converged_runs_total",
		"Runs whose own stopping rule ended the loop, per detector.", "detector")
	mActiveRuns = metrics.NewGauge("engine_active_runs",
		"Detect calls currently executing.")
	mInterrupts = metrics.NewCounter("engine_loop_interrupts_total",
		"Convergence loops ended early by cancellation or deadline expiry.")
	mRunsCanceled = metrics.NewCounterVec("engine_runs_canceled_total",
		"Detect calls ended by cancellation or deadline, per detector.", "detector")

	// ShardLoop's barrier accounting, named for the sharded ν-LPA backend,
	// its only multi-shard user.
	mSupersteps = metrics.NewCounter("nulpa_shard_supersteps_total",
		"BSP supersteps (barrier crossings) executed by the sharded backend.")
	mBarrierWait = metrics.NewHistogram("nulpa_shard_barrier_wait_seconds",
		"Idle time shards spent at the BSP barrier waiting for the slowest peer, per superstep.",
		metrics.ExpBuckets(1e-6, 4, 12))
)

// instrumented decorates a Detector with the run-grained metric families and
// the run-grained trace span. It is installed by Register, so Get/MustGet
// always hand out the accounted version.
type instrumented struct {
	d Detector
}

func (w instrumented) Name() string { return w.d.Name() }

func (w instrumented) Detect(g *graph.CSR, opt Options) (res *Result, err error) {
	name := w.d.Name()
	// When the caller's context carries a trace (an httpapi job's root span,
	// cmd/nulpa's run span), the whole Detect call becomes a "detect" child
	// span, and the detector sees the span-carrying context so Loop's
	// iteration spans nest under it.
	ctx := opt.Context
	if ctx == nil {
		ctx = context.Background()
	}
	dctx, span := trace.Child(ctx, "detect")
	if span != nil {
		span.SetString("detector", name)
		span.SetInt("vertices", int64(g.NumVertices()))
		span.SetInt("arcs", g.NumArcs())
		opt.Context = dctx
	}
	// The quality plane hangs off the profiler: attach the run's incremental
	// modularity tracker here, so every detector reached through the registry
	// is quality-accounted without per-algorithm code — the convergence loop
	// feeds it labels via Recorder.ObserveQuality.
	var qt *quality.Tracker
	if opt.Quality.Enabled {
		if opt.Profiler == nil {
			opt.Profiler = telemetry.NewRecorder()
		}
		qt = quality.NewTracker(g, quality.TrackerConfig{SampleEvery: opt.Quality.SampleEvery})
		opt.Profiler.SetQualityObserver(qt)
		defer opt.Profiler.SetQualityObserver(nil)
	}
	mActiveRuns.Add(1)
	start := time.Now()
	// One deferred function records every outcome. A detector panic is
	// recorded as a failed run, with its span ended, and then goes on to a
	// caller that recovers it (the scheduler's runTask does).
	defer func() {
		mActiveRuns.Add(-1)
		mRunSeconds.With(name).Observe(time.Since(start).Seconds())
		if p := recover(); p != nil {
			res, err = nil, fmt.Errorf("panic: %v", p)
			defer panic(p)
		}
		if err != nil {
			span.SetString("error", err.Error())
			span.End()
			// Interruptions are the caller's doing, not detector failures:
			// their own family keeps error-rate alerts meaningful.
			if IsInterrupt(err) {
				mRunsCanceled.With(name).Inc()
			} else {
				mRunErrors.With(name).Inc()
				slog.Warn("detector run failed",
					"detector", name, "trace", trace.IDFromContext(ctx), "error", err)
			}
			return
		}
		if res != nil {
			span.SetInt("iterations", int64(res.Iterations))
			span.SetInt("communities", int64(res.Communities))
			span.SetBool("converged", res.Converged)
			if qt != nil {
				fs := qt.Final()
				res.Quality = &fs
				span.SetFloat("modularity", fs.Modularity)
				span.SetFloat("qualityDrift", fs.Drift)
				mQFinal.With(name).Observe(fs.Modularity)
				mQFinalDrift.Observe(fs.Drift)
				mQFinalByDetector.With(name).Set(fs.Modularity)
			}
		}
		span.End()
		mRuns.With(name).Inc()
		if res != nil && res.Converged {
			mConverged.With(name).Inc()
		}
	}()
	return w.d.Detect(g, opt)
}

// Unwrap returns the detector underneath the registry's metrics decoration —
// for tests that need the registered implementation itself.
func Unwrap(d Detector) Detector {
	if w, ok := d.(instrumented); ok {
		return w.d
	}
	return d
}
