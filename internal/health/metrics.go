package health

import "nulpa/internal/metrics"

// The engine_health_* families: aggregate exposition of the per-run
// monitors. Gauges carry the most recent monitored frame's signals (a
// fleet-level "what is the engine doing right now" view — per-run detail
// lives in the SSE stream and flight bundles); counters and histograms
// accumulate across runs.
var (
	mFrames = metrics.NewCounter("engine_health_frames_total",
		"Health frames derived across all monitored runs.")
	mFramesDropped = metrics.NewCounter("engine_health_frames_dropped_total",
		"Live frames dropped because a subscriber's buffer was full.")
	mTransitions = metrics.NewCounterVec("engine_health_transitions_total",
		"Health-state transitions by entered state (exemplars carry the run's trace id).", "state")
	mStateRuns = metrics.NewGaugeVec("engine_health_state_runs",
		"Currently monitored runs by health state.", "state")
	mFlightDumps = metrics.NewCounterVec("engine_health_flight_dumps_total",
		"Flight-recorder bundles captured, by reason.", "reason")
	mQualityCollapses = metrics.NewCounter("engine_quality_collapses_total",
		"Runs entering the quality-collapse state (exemplars carry the run's trace id).")

	mETA = metrics.NewGauge("engine_health_eta_iterations",
		"Most recent frame's extrapolated iterations to convergence (-1 unknown).")
	mSlope = metrics.NewGauge("engine_health_decay_slope",
		"Most recent frame's ln(deltaN) decay slope per iteration.")
	mOsc = metrics.NewGauge("engine_health_oscillation_score",
		"Most recent frame's oscillation score (fraction of window steps failing to decay).")
	mSkew = metrics.NewGauge("engine_health_straggler_skew",
		"Most recent superstep's max/median shard-time ratio.")
	mOccupancy = metrics.NewGauge("engine_health_frontier_occupancy",
		"Most recent frame's active-vertex share of the graph.")

	// Log-spaced histogram of iteration wall time from ~10µs to ~40s, the
	// latency distribution the stall detector summarizes. Barrier wait is
	// nulpa_shard_barrier_wait_seconds, observed on every sharded run.
	mIterSeconds = metrics.NewHistogram("engine_health_iteration_seconds",
		"Monitored iteration wall time.", metrics.ExpBuckets(1e-5, 2, 22))
)
