package simt

import (
	"time"

	"nulpa/internal/metrics"
	"nulpa/internal/telemetry"
)

// Metrics bridge: a profiled launch (Device.Prof non-nil) feeds the live
// metrics plane itself, from the launch record it hands the profiler, so the
// two observability layers can never disagree about what the device did:
//
//	simt_kernel_launches_total{kernel}  launches per kernel
//	simt_kernel_seconds{kernel}         wall time per launch (histogram)
//	simt_sm_busy_microseconds_total     summed SM busy time
//	simt_blocks_total / simt_warp_phases_total / simt_lanes_total
//	simt_sm_occupancy                   busy/(wall·SMs) of the last launch
//	nulpa_work_*_total{kernel}          the launch's work ledger (work.go)
//
// Unprofiled launches update none of them. The livelock-fault spin counter
// (fault.go) is always on and is exported directly as a scrape-time
// counter — one source of truth, no second accounting path.

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
		"Lanes executed by profiled launches: the lanes each kernel ran, not its block width.")
	mOccupancy = metrics.NewGauge("simt_sm_occupancy",
		"SM occupancy of the most recent profiled launch: busy/(wall*SMs).")
)

func init() {
	metrics.NewCounterFunc("simt_cas_retries_total",
		"Synthetic CAS retries charged by injected livelock faults, process-wide.",
		func() float64 { return float64(livelockSpins.Load()) })
}

// report hands a profiled launch's record to prof and adds it to the
// metric families above. It runs on the launching goroutine after the grid
// has joined.
func report(prof *telemetry.Recorder, l telemetry.Launch) {
	var busy time.Duration
	var blocks, phases, lanes int64
	for _, sm := range l.SMs {
		busy += sm.Busy()
		blocks += sm.Blocks
		phases += sm.Phases
		lanes += sm.Lanes
	}
	mKernelLaunches.With(l.Kernel).Inc()
	mSMBusy.Add(busy.Microseconds())
	mBlocks.Add(blocks)
	mPhases.Add(phases)
	mLanes.Add(lanes)
	exportWork(l.Kernel, l.Work)
	wall := l.End.Sub(l.Start)
	mKernelSeconds.With(l.Kernel).Observe(wall.Seconds())
	if wall > 0 && len(l.SMs) > 0 {
		mOccupancy.Set(float64(busy) / (float64(wall) * float64(len(l.SMs))))
	}
	prof.RecordLaunch(l)
}
