package simt

import (
	"sync"
	"time"

	"nulpa/internal/metrics"
)

// Metrics bridge: device-level execution events flow into the live metrics
// plane through the same Profiler hook the telemetry Recorder uses, so the
// two observability layers can never disagree about what the device did.
// Attach a MetricsProfiler to Device.Prof (combine with a Recorder via
// MultiProfiler) to populate:
//
//	simt_kernel_launches_total{kernel}  launches per kernel
//	simt_kernel_seconds{kernel}         wall time per launch (histogram)
//	simt_sm_busy_microseconds_total     summed SM busy time
//	simt_blocks_total / simt_warp_phases_total / simt_lanes_total
//	simt_sm_occupancy                   busy/(wall·SMs) of the last launch
//
// The atomics contention counters (atomics.go) are always on and are
// exported directly as scrape-time counters — one source of truth, no
// second accounting path.

var (
	mKernelLaunches = metrics.NewCounterVec("simt_kernel_launches_total",
		"Kernel launches on the simulated device, per kernel.", "kernel")
	mKernelSeconds = metrics.NewHistogramVec("simt_kernel_seconds",
		"Wall time of kernel launches (cudaDeviceSynchronize span).", "kernel",
		metrics.ExpBuckets(1e-5, 4, 14))
	mSMBusy = metrics.NewCounter("simt_sm_busy_microseconds_total",
		"Summed SM busy time across profiled launches, in microseconds.")
	mBlocks = metrics.NewCounter("simt_blocks_total",
		"Thread blocks executed by profiled launches.")
	mPhases = metrics.NewCounter("simt_warp_phases_total",
		"Lockstep phase barriers crossed by profiled launches.")
	mLanes = metrics.NewCounter("simt_lanes_total",
		"Lanes executed by profiled launches; a block-phase kernel counts the lanes it ran, not its block width.")
	mOccupancy = metrics.NewGauge("simt_sm_occupancy",
		"SM occupancy of the most recent profiled launch: busy/(wall*SMs).")
)

func init() {
	metrics.NewCounterFunc("simt_cas_retries_total",
		"Lost atomicCAS races (retry loops), process-wide.",
		func() float64 { return float64(casRetries.Load()) })
	metrics.NewCounterFunc("simt_minmax_retries_total",
		"Lost atomicMin/atomicMax races, process-wide.",
		func() float64 { return float64(minMaxRetries.Load()) })
	metrics.NewCounterFunc("simt_floatadd_retries_total",
		"Lost float atomicAdd races, process-wide.",
		func() float64 { return float64(floatAddRetries.Load()) })
}

// MetricsProfiler implements Profiler by aggregating launch events into the
// default metrics registry. Unlike telemetry.Recorder it keeps no per-launch
// history: entries are dropped once KernelEnd folds them into the counters,
// so a long-running server's memory stays bounded.
type MetricsProfiler struct {
	mu       sync.Mutex
	next     int
	launches map[int]*mpLaunch
	// evict is the oldest launch id that may still be in the map; the
	// eviction scan advances it so abandoned entries cannot accumulate.
	evict int
}

// maxPendingLaunches bounds the in-flight launch maps of MetricsProfiler and
// multiProfiler. Entries are removed on KernelEnd, but a launch abandoned
// between Begin and End (a kernel that panicked, a goroutine that died)
// would otherwise leak its entry for the life of a serve session. Launch ids
// are dense and monotonic, so eviction drops the oldest ids first — exactly
// the ones that can no longer complete.
const maxPendingLaunches = 1024

// evictOldest drops the oldest entries of a dense-id launch map until it is
// back under maxPendingLaunches. cursor is the oldest id possibly present;
// the advanced cursor is returned. Callers hold the map's lock.
func evictOldest[V any](m map[int]V, cursor, newest int) int {
	for len(m) > maxPendingLaunches && cursor < newest {
		delete(m, cursor)
		cursor++
	}
	return cursor
}

type mpLaunch struct {
	kernel string
	sms    int
	busy   time.Duration
}

// NewMetricsProfiler returns a MetricsProfiler feeding the default registry.
func NewMetricsProfiler() *MetricsProfiler {
	return &MetricsProfiler{launches: map[int]*mpLaunch{}}
}

// KernelBegin implements Profiler.
func (p *MetricsProfiler) KernelBegin(kernel string, grid, blockDim, sms int) int {
	mKernelLaunches.With(kernel).Inc()
	p.mu.Lock()
	defer p.mu.Unlock()
	id := p.next
	p.next++
	p.launches[id] = &mpLaunch{kernel: kernel, sms: sms}
	p.evict = evictOldest(p.launches, p.evict, id)
	return id
}

// SMSpan implements Profiler.
func (p *MetricsProfiler) SMSpan(launch, sm int, start, end time.Time, blocks, phases, lanes int64) {
	busy := end.Sub(start)
	mSMBusy.Add(busy.Microseconds())
	mBlocks.Add(blocks)
	mPhases.Add(phases)
	mLanes.Add(lanes)
	p.mu.Lock()
	if l, ok := p.launches[launch]; ok {
		l.busy += busy
	}
	p.mu.Unlock()
}

// KernelEnd implements Profiler.
func (p *MetricsProfiler) KernelEnd(launch int, start, end time.Time) {
	p.mu.Lock()
	l, ok := p.launches[launch]
	delete(p.launches, launch)
	p.mu.Unlock()
	if !ok {
		return
	}
	wall := end.Sub(start)
	mKernelSeconds.With(l.kernel).Observe(wall.Seconds())
	if wall > 0 && l.sms > 0 {
		mOccupancy.Set(float64(l.busy) / (float64(wall) * float64(l.sms)))
	}
}

// multiProfiler fans events out to several profilers, translating its own
// launch ids to each child's.
type multiProfiler struct {
	ps []Profiler
	mu sync.Mutex
	// ids maps this profiler's launch id to the children's ids, in ps order.
	ids   map[int][]int
	nxt   int
	evict int
}

// MultiProfiler combines profilers into one Profiler — the way to feed the
// telemetry Recorder and the metrics plane from a single device. Nil entries
// are dropped; a single survivor is returned unwrapped.
func MultiProfiler(ps ...Profiler) Profiler {
	var live []Profiler
	for _, p := range ps {
		if p != nil {
			live = append(live, p)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return &multiProfiler{ps: live, ids: map[int][]int{}}
}

// KernelBegin implements Profiler.
func (m *multiProfiler) KernelBegin(kernel string, grid, blockDim, sms int) int {
	child := make([]int, len(m.ps))
	for i, p := range m.ps {
		child[i] = p.KernelBegin(kernel, grid, blockDim, sms)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	id := m.nxt
	m.nxt++
	m.ids[id] = child
	m.evict = evictOldest(m.ids, m.evict, id)
	return id
}

// SMSpan implements Profiler.
func (m *multiProfiler) SMSpan(launch, sm int, start, end time.Time, blocks, phases, lanes int64) {
	m.mu.Lock()
	child := m.ids[launch]
	m.mu.Unlock()
	if child == nil {
		return
	}
	for i, p := range m.ps {
		p.SMSpan(child[i], sm, start, end, blocks, phases, lanes)
	}
}

// KernelEnd implements Profiler.
func (m *multiProfiler) KernelEnd(launch int, start, end time.Time) {
	m.mu.Lock()
	child := m.ids[launch]
	delete(m.ids, launch)
	m.mu.Unlock()
	if child == nil {
		return
	}
	for i, p := range m.ps {
		p.KernelEnd(child[i], start, end)
	}
}
