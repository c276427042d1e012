package simt

import (
	"nulpa/internal/metrics"
	"nulpa/internal/telemetry"
)

// Work accounting: kernels that count their algorithmic work — edge visits,
// label flips, hashtable probes/collisions, active vertices — implement
// TallyKernel. Their lanes count into single-writer per-SM tallies with
// plain adds, and nothing is summed until the grid has joined:
// FoldTallies then returns the launch's telemetry.WorkCounts, which a
// profiled launch records as its telemetry.Launch's Work and adds to the
// nulpa_work_*_total{kernel} families below. Kernels count only when the
// device has a profiler, which keeps the unprofiled path free of even
// those adds.

// CacheLine is the padding that keeps per-SM tallies written by different
// SM goroutines off each other's cache lines: a full line of trailing
// padding separates neighbouring tallies whatever the slice's alignment.
const CacheLine = 64

var (
	mWorkEdgeVisits = metrics.NewCounterVec("nulpa_work_edge_visits_total",
		"Edge (arc) inspections by profiled kernel launches, per kernel.", "kernel")
	mWorkLabelFlips = metrics.NewCounterVec("nulpa_work_label_flips_total",
		"Committed label changes by profiled kernel launches, per kernel.", "kernel")
	mWorkHashProbes = metrics.NewCounterVec("nulpa_work_hash_probes_total",
		"Hashtable slot probes by profiled kernel launches, per kernel.", "kernel")
	mWorkHashCollisions = metrics.NewCounterVec("nulpa_work_hash_collisions_total",
		"Hashtable probe collisions by profiled kernel launches, per kernel.", "kernel")
	mWorkActive = metrics.NewCounterVec("nulpa_work_active_vertices_total",
		"Vertices processed (frontier occupancy) by profiled kernel launches, per kernel.", "kernel")
)

// exportWork adds one launch's work ledger to the nulpa_work_*_total
// families under kernel.
func exportWork(kernel string, w telemetry.WorkCounts) {
	mWorkEdgeVisits.With(kernel).Add(w.EdgeVisits)
	mWorkLabelFlips.With(kernel).Add(w.LabelFlips)
	mWorkHashProbes.With(kernel).Add(w.HashProbes)
	mWorkHashCollisions.With(kernel).Add(w.HashCollisions)
	mWorkActive.With(kernel).Add(w.ActiveVertices)
}
