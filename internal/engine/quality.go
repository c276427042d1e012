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
	// Gamma is the modularity resolution γ (0 means 1).
	Gamma float64
}

// The engine_quality_* families: iteration-grained gauges fed by Loop (the
// fleet-level "how good are the communities right now" view) and run-grained
// histograms fed by the instrumented registry wrapper. The recompute counter
// carries trace exemplars so a surprising drift sample links to its run.
var (
	mQModularity = metrics.NewGauge("engine_quality_modularity",
		"Most recent quality-observed iteration's live modularity estimate.")
	mQDrift = metrics.NewGauge("engine_quality_drift",
		"Most recent sampled recompute's estimator drift |Q̂ − Q_exact|.")
	mQCommunities = metrics.NewGauge("engine_quality_communities",
		"Most recent quality-observed iteration's community count.")
	mQGiantShare = metrics.NewGauge("engine_quality_giant_share",
		"Most recent quality-observed iteration's largest-community share of |V|.")
	mQSingletonRate = metrics.NewGauge("engine_quality_singleton_rate",
		"Most recent quality-observed iteration's singleton share of communities.")
	mQEntropy = metrics.NewGauge("engine_quality_entropy",
		"Most recent quality-observed iteration's label entropy (nats).")
	mQChurn = metrics.NewGauge("engine_quality_churn_nmi",
		"Most recent sampled NMI against the previous snapshot (1 = stable).")
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
	mQModularity.Set(rec.Modularity)
	mQCommunities.Set(float64(rec.Communities))
	mQGiantShare.Set(rec.GiantShare)
	mQSingletonRate.Set(rec.SingletonRate)
	mQEntropy.Set(rec.Entropy)
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
		mQDrift.Set(rec.Drift)
		mQRecomputes.IncExemplar(trace.IDFromContext(ctx))
	}
	if rec.ChurnValid {
		mQChurn.Set(rec.ChurnNMI)
	}
}
