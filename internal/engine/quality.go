package engine

import (
	"context"

	"nulpa/internal/metrics"
	"nulpa/internal/telemetry"
	"nulpa/internal/trace"
)

// QualityConfig enables the per-iteration quality telemetry plane on a run.
// The zero value disables it, keeping the per-iteration quality accounting at
// zero allocations (the PR 1 contract).
type QualityConfig struct {
	// Enabled turns on the incremental modularity estimator, community
	// census, and partition-churn accounting for the run.
	Enabled bool
	// SampleEvery is the exact-recompute cadence (iterations): each sampled
	// iteration pays one O(E) modularity recompute, reports estimator drift,
	// rebases the incremental sums, and computes churn NMI vs the previous
	// snapshot. 0 means 8; negative disables sampling (the end-of-run
	// summary still recomputes exactly).
	SampleEvery int
}

// The engine_quality_* families: iteration-grained counters fed by Loop and
// run-grained families fed by the instrumented registry wrapper. The
// per-iteration values themselves (live modularity, census, drift, churn)
// travel in the iteration record's quality field, which the health frames
// and the trace carry per run. The recompute counter carries trace
// exemplars so a surprising drift sample links to its run.
var (
	mQRecomputes = metrics.NewCounter("engine_quality_recomputes_total",
		"Sampled exact modularity recomputes (exemplars carry the run's trace id).")
	mQFlips = metrics.NewCounterVec("engine_quality_flips_total",
		"Label flips observed by the quality plane, by degree class of the flipping vertex.", "degree")
	mQFinal = metrics.NewHistogramVec("engine_quality_modularity_final",
		"End-of-run exact modularity.", "detector", modularityBuckets())
	mQFinalDrift = metrics.NewHistogram("engine_quality_estimator_drift",
		"End-of-run |estimate − exact| of the incremental modularity estimator.",
		metrics.ExpBuckets(1e-15, 10, 12))
	mQFinalByDetector = metrics.NewGaugeVec("engine_quality_run_modularity",
		"Most recent completed run's exact modularity, per detector.", "detector")
)

// modularityBuckets spans Q's range [-0.5, 1] in steps of 0.1.
func modularityBuckets() []float64 {
	b := make([]float64, 0, 16)
	for q := -0.5; q < 1.01; q += 0.1 {
		b = append(b, q)
	}
	return b
}

// recordQualityMetrics publishes one iteration's quality record on the
// metrics plane. ctx carries the iteration span's trace for exemplars.
func recordQualityMetrics(ctx context.Context, rec telemetry.QualityRecord) {
	if rec.FlipsLow > 0 {
		mQFlips.With("low").Add(rec.FlipsLow)
	}
	if rec.FlipsMid > 0 {
		mQFlips.With("mid").Add(rec.FlipsMid)
	}
	if rec.FlipsHigh > 0 {
		mQFlips.With("high").Add(rec.FlipsHigh)
	}
	if rec.Exact {
		mQRecomputes.IncExemplar(trace.IDFromContext(ctx))
	}
}
