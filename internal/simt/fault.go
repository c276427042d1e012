package simt

import (
	"errors"
	"sync/atomic"
	"time"
)

// Fault injection seam. A Device with a non-nil Faults injector consults it
// once per LaunchKernel call, before any block executes, and applies the
// returned LaunchFault. The seam models the failure modes a real GPU
// deployment sees and the simulator otherwise never produces:
//
//   - FaultLaunchFail: the launch is rejected outright (driver error,
//     ECC-poisoned context). No kernel work runs; LaunchKernel returns
//     ErrKernelLaunch.
//   - FaultStall: one SM goes slow for the launch (preemption, thermal
//     throttling). The kernel still completes correctly — the point is to
//     exercise deadline handling above, not to corrupt state.
//   - FaultLivelock: the launch makes no forward progress because atomic
//     CAS loops keep losing races (the paper's lockstep-swap pathology taken
//     to its limit). The injected spins are charged to livelockSpins, which
//     the metrics plane exports as simt_cas_retries_total, so a dashboard
//     sees the spike, and the launch fails with ErrLivelock, as a watchdog
//     timeout would report it.
//
// Transient memory corruption (bit-flips in label arrays) is not a launch
// fault: it is injected by the backend that owns the arrays, between
// launches, where it can also checkpoint and validate them. See
// internal/faults.

// livelockSpins sums the synthetic CAS retries of every injected livelock,
// process-wide. The simulated kernels have no CAS loop, so nothing else
// charges it.
var livelockSpins atomic.Int64

// FaultKind enumerates the launch-level fault classes.
type FaultKind int

const (
	// FaultNone leaves the launch untouched.
	FaultNone FaultKind = iota
	// FaultLaunchFail rejects the launch before any block runs.
	FaultLaunchFail
	// FaultStall delays one SM by LaunchFault.Stall.
	FaultStall
	// FaultLivelock burns LaunchFault.Spins synthetic CAS retries and fails
	// the launch with ErrLivelock.
	FaultLivelock
)

// String names the fault kind for telemetry and error messages.
func (k FaultKind) String() string {
	switch k {
	case FaultLaunchFail:
		return "launch-fail"
	case FaultStall:
		return "stall"
	case FaultLivelock:
		return "livelock"
	default:
		return "none"
	}
}

// LaunchFault is an injector's verdict for one kernel launch.
type LaunchFault struct {
	Kind FaultKind
	// Stall is the delay applied to one SM for FaultStall.
	Stall time.Duration
	// Spins is the synthetic CAS-retry count charged for FaultLivelock.
	Spins int64
}

// FaultInjector decides the fate of kernel launches. LaunchFault is called
// once per LaunchKernel with the kernel's profiling name and the device-wide
// launch ordinal; implementations must be deterministic in those inputs (plus
// their own seed) so fault schedules are reproducible, and safe for
// concurrent use.
type FaultInjector interface {
	LaunchFault(kernel string, launch int64) LaunchFault
}

// Typed launch failures. Callers match with errors.Is.
var (
	// ErrKernelLaunch reports an injected (or simulated-driver) launch
	// rejection.
	ErrKernelLaunch = errors.New("simt: kernel launch failed")
	// ErrLivelock reports a launch aborted by the livelock watchdog.
	ErrLivelock = errors.New("simt: kernel livelocked on atomic contention")
)
