package nulpa

import "nulpa/internal/metrics"

// Recovery-ladder metrics: retry → rollback → backend fallback. They sit in
// the live registry next to the faults_injected_total families, so a scrape
// during a chaos run shows injection and recovery side by side.
var (
	mRetries = metrics.NewCounter("nulpa_fault_retries_total",
		"Iteration re-executions performed by simt fault recovery.")
	mRollbacks = metrics.NewCounter("nulpa_fault_rollbacks_total",
		"Label-array checkpoint restores after a faulted iteration.")
	mCorruptions = metrics.NewCounter("nulpa_label_corruptions_total",
		"Label-array validity failures detected by the post-iteration check.")
	mFallbacks = metrics.NewCounter("nulpa_backend_fallbacks_total",
		"Runs that exhausted fault recovery and were rerun sequentially in the direct configuration.")
)

// Sharded-execution metrics. The per-shard families are labeled by shard id,
// so /metrics can attribute halo traffic and label flips to individual
// devices; a run's per-shard cut, memory and community counts are in its
// Result.ShardStats. The superstep count and barrier wait are
// engine.ShardLoop's.
var (
	mShardHaloLabels = metrics.NewCounterVec("nulpa_shard_halo_labels_total",
		"Changed ghost labels received at BSP superstep barriers, per shard.", "shard")
	mShardMoves = metrics.NewCounterVec("nulpa_shard_label_flips_total",
		"Gross label changes executed by the sharded backend, per shard.", "shard")
)
