package health

import "nulpa/internal/metrics"

// The engine_health_* families: aggregate exposition of the per-run
// monitors. Counters accumulate across runs and the state gauge counts the
// runs in each state; a run's own signals live in its frames (the SSE
// stream, the -health line and the flight bundle). Quality collapses are
// the transitions into the quality-collapse state.
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
)
