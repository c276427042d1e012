package hashtable

import "nulpa/internal/metrics"

// probeBuckets is the number of finite hashtable_probe_length buckets, with
// bounds 1, 2, 4, …, 512; Tally buckets probe lengths against the same
// bounds in its plain per-SM array.
const probeBuckets = 10

// Live-metrics bridge. The histogram answers the question the per-iteration
// totals cannot: how probe work is distributed per accumulate (p50/p95/p99 probe
// length), which is what distinguishes a healthy table from one drowning in
// clustering. Updates ride the Tally gate — an accumulate without a Tally keeps
// the hot path untouched — and arrive in bulk from Tally.Fold, so the
// metrics advance once per kernel launch, not once per accumulate.
var (
	mProbeLen = metrics.NewHistogram("hashtable_probe_length",
		"Slots inspected per successful accumulate.",
		metrics.ExpBuckets(1, 2, probeBuckets))
	mFallbacks = metrics.NewCounter("hashtable_fallbacks_total",
		"Accumulates that exhausted the probe budget and fell back to a linear scan.")
	mFailures = metrics.NewCounter("hashtable_failures_total",
		"Accumulates that found no slot at all.")
)
