package simt

import "nulpa/internal/metrics"

// Work accounting: kernels that can count their algorithmic work — edge
// visits, label flips, hashtable probes/collisions, active vertices — report
// it per launch through Profiler.KernelWork. A Kernel additionally
// implements WorkReportingKernel, and the device drains its counters into
// the profiler in launch(), after every block has finished and before
// KernelEnd. KernelWork passes flat int64s rather than a shared struct so
// telemetry.Recorder satisfies Profiler without importing this package.
//
// Counting is contention-free: a lane counts into its SM's own shard
// (WorkAccum.Shard(t.SM)) with plain adds, and nothing is summed until the
// grid has joined. Kernels count only when the device has a profiler, which
// keeps the unprofiled path free of even those adds.

// WorkReportingKernel is the optional Kernel extension for kernels that
// count their work. TakeWork drains the counters accumulated since the last
// call — launch() calls it once after the grid completes, so a kernel reused
// across launches reports per-launch deltas for free.
type WorkReportingKernel interface {
	Kernel
	TakeWork() (edgeVisits, labelFlips, hashProbes, hashCollisions, activeVertices int64)
}

// WorkCounts is one SM's share of a launch's work counters. Only the SM's
// own goroutine writes it, with plain adds.
type WorkCounts struct {
	EdgeVisits     int64
	LabelFlips     int64
	HashProbes     int64
	HashCollisions int64
	ActiveVertices int64
}

// CacheLine is the padding that keeps per-SM tallies written by different
// SM goroutines off each other's cache lines: a full line of trailing
// padding separates neighbouring tallies whatever the slice's alignment.
const CacheLine = 64

// workShard is one SM's counters, padded against false sharing.
type workShard struct {
	WorkCounts
	_ [CacheLine]byte
}

// WorkAccum is a per-SM sharded work-counter accumulator for kernels to
// embed: a lane adds to Shard(t.SM) from its SM goroutine, and Take sums and
// drains the shards from the launching goroutine once the grid has joined.
// Size it with Grow before a launch (TallyKernel.GrowTallies is the hook);
// the zero value has no shards.
type WorkAccum struct {
	shards []workShard
}

// Grow makes room for sms shards. It allocates only when sms exceeds every
// earlier size, and must not run concurrently with a launch.
func (w *WorkAccum) Grow(sms int) {
	if sms > len(w.shards) {
		grown := make([]workShard, sms)
		copy(grown, w.shards)
		w.shards = grown
	}
}

// Shard returns SM sm's counters. Only that SM's goroutine may write them.
func (w *WorkAccum) Shard(sm int) *WorkCounts { return &w.shards[sm].WorkCounts }

// Take drains the accumulator, returning the counts since the last Take.
func (w *WorkAccum) Take() (edgeVisits, labelFlips, hashProbes, hashCollisions, activeVertices int64) {
	for i := range w.shards {
		c := &w.shards[i].WorkCounts
		edgeVisits += c.EdgeVisits
		labelFlips += c.LabelFlips
		hashProbes += c.HashProbes
		hashCollisions += c.HashCollisions
		activeVertices += c.ActiveVertices
		*c = WorkCounts{}
	}
	return edgeVisits, labelFlips, hashProbes, hashCollisions, activeVertices
}

// Metrics-plane export: per-kernel work counters, populated whenever a
// MetricsProfiler is attached and the kernel reports work.
var (
	mWorkEdgeVisits = metrics.NewCounterVec("nulpa_work_edge_visits_total",
		"Edge (arc) inspections by work-reporting kernels, per kernel.", "kernel")
	mWorkLabelFlips = metrics.NewCounterVec("nulpa_work_label_flips_total",
		"Committed label changes by work-reporting kernels, per kernel.", "kernel")
	mWorkHashProbes = metrics.NewCounterVec("nulpa_work_hash_probes_total",
		"Hashtable slot probes by work-reporting kernels, per kernel.", "kernel")
	mWorkHashCollisions = metrics.NewCounterVec("nulpa_work_hash_collisions_total",
		"Hashtable probe collisions by work-reporting kernels, per kernel.", "kernel")
	mWorkActive = metrics.NewCounterVec("nulpa_work_active_vertices_total",
		"Vertices processed (frontier occupancy) by work-reporting kernels, per kernel.", "kernel")
)

// KernelWork implements Profiler: work counters flow to the
// nulpa_work_*_total{kernel} metric families.
func (p *MetricsProfiler) KernelWork(launch int, edgeVisits, labelFlips, hashProbes, hashCollisions, activeVertices int64) {
	p.mu.Lock()
	l, ok := p.launches[launch]
	p.mu.Unlock()
	if !ok {
		return
	}
	mWorkEdgeVisits.With(l.kernel).Add(edgeVisits)
	mWorkLabelFlips.With(l.kernel).Add(labelFlips)
	mWorkHashProbes.With(l.kernel).Add(hashProbes)
	mWorkHashCollisions.With(l.kernel).Add(hashCollisions)
	mWorkActive.With(l.kernel).Add(activeVertices)
}

// KernelWork implements Profiler by forwarding to every child.
func (m *multiProfiler) KernelWork(launch int, edgeVisits, labelFlips, hashProbes, hashCollisions, activeVertices int64) {
	m.mu.Lock()
	child := m.ids[launch]
	m.mu.Unlock()
	if child == nil {
		return
	}
	for i, p := range m.ps {
		p.KernelWork(child[i], edgeVisits, labelFlips, hashProbes, hashCollisions, activeVertices)
	}
}
