package simt

import (
	"sync/atomic"
	"time"

	"nulpa/internal/metrics"
	"nulpa/internal/telemetry"
)

// Metrics bridge: a profiled launch (Device.Prof non-nil) feeds the live
// metrics plane itself, from the same values it hands the profiler, so the
// two observability layers can never disagree about what the device did:
//
//	simt_kernel_launches_total{kernel}  launches per kernel
//	simt_kernel_seconds{kernel}         wall time per launch (histogram)
//	simt_sm_busy_microseconds_total     summed SM busy time
//	simt_blocks_total / simt_warp_phases_total / simt_lanes_total
//	simt_sm_occupancy                   busy/(wall·SMs) of the last launch
//	nulpa_work_*_total{kernel}          the launch's work ledger (work.go)
//
// Unprofiled launches update none of them. The atomics contention counters
// (atomics.go) are always on and are exported directly as scrape-time
// counters — one source of truth, no second accounting path.

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

// profiledLaunch is one profiled launch's bookkeeping: the profiler's
// launch id and the SM busy time the occupancy gauge needs. An unprofiled
// launch has none (a nil *profiledLaunch).
type profiledLaunch struct {
	prof   Profiler
	kernel string
	id     int
	sms    int
	start  time.Time
	busy   atomic.Int64 // summed SM busy nanoseconds
}

// beginProfile announces a launch of k to the device's profiler and the
// metrics plane, or returns nil when the device has no profiler.
func (d *Device) beginProfile(k Kernel, grid, blockDim, sms int) *profiledLaunch {
	if d.Prof == nil {
		return nil
	}
	pl := &profiledLaunch{prof: d.Prof, kernel: KernelName(k), sms: sms}
	pl.id = pl.prof.KernelBegin(pl.kernel, grid, blockDim, sms)
	mKernelLaunches.With(pl.kernel).Inc()
	pl.start = time.Now()
	return pl
}

// smSpan reports one SM's busy span, which started at start and ends now.
// SM goroutines call it concurrently.
func (pl *profiledLaunch) smSpan(sm int, start time.Time, blocks, phases, lanes int64) {
	end := time.Now()
	pl.prof.SMSpan(pl.id, sm, start, end, blocks, phases, lanes)
	busy := end.Sub(start)
	pl.busy.Add(int64(busy))
	mSMBusy.Add(busy.Microseconds())
	mBlocks.Add(blocks)
	mPhases.Add(phases)
	mLanes.Add(lanes)
}

// end reports the launch's work ledger and then its wall span, which ends
// now. It runs on the launching goroutine after the grid has joined.
func (pl *profiledLaunch) end(w telemetry.WorkCounts) {
	pl.prof.KernelWork(pl.id, w)
	exportWork(pl.kernel, w)
	end := time.Now()
	pl.prof.KernelEnd(pl.id, pl.start, end)
	wall := end.Sub(pl.start)
	mKernelSeconds.With(pl.kernel).Observe(wall.Seconds())
	if wall > 0 && pl.sms > 0 {
		mOccupancy.Set(float64(pl.busy.Load()) / (float64(wall) * float64(pl.sms)))
	}
}
