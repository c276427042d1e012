// Package simt is a software model of the SIMT execution hardware the paper
// runs on (an NVIDIA A100): streaming multiprocessors (SMs), thread blocks,
// block-level synchronization and shared memory.
//
// # Execution model
//
// Kernels are expressed as a sequence of phases, and the engine calls a
// kernel once per block and phase: BlockPhase(p, t) runs phase p for the
// lanes of block t.Block, in lane order, and every lane of the block
// finishes phase p before any starts phase p+1. Phase boundaries therefore
// behave exactly like __syncthreads(), and within a phase every lane
// observes memory as of the previous boundary's completion, i.e. lockstep.
// This is the property that makes label swaps between symmetric vertices
// deterministic on a GPU (both read each other's old label, then both
// write), and it is reproduced here by construction, not by accident of
// goroutine scheduling. A kernel may skip the lanes it knows to be idle.
//
// Blocks are assigned to SMs statically — block b runs on SM b mod NumSMs,
// mirroring the ID-based SM assignment the paper calls out — and the SMs run
// concurrently as goroutines, so cross-block interleaving is asynchronous,
// as on real hardware. Each SM runs its blocks one at a time, in block
// order, and every phase of a block back to back before its next block
// starts: there is no grid-wide barrier between phases. Blocks on different
// SMs communicate only through global memory, with atomic loads and stores
// (atomics.go), as in CUDA.
package simt

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"nulpa/internal/telemetry"
	"nulpa/internal/trace"
)

// Device models one GPU: a set of SMs that execute thread blocks, and a
// global-memory capacity used to reproduce the paper's out-of-memory
// failures (ν-LPA cannot process sk-2005 on an 80 GB A100).
type Device struct {
	// NumSMs is the number of concurrently executing streaming
	// multiprocessors. The A100 has 108; the default here is the host
	// parallelism, which plays the same architectural role.
	NumSMs int
	// MemBudget is the simulated global-memory capacity in bytes;
	// 0 means unlimited.
	MemBudget int64

	// ID numbers the device among the devices that report to one profiler,
	// as CUDA numbers the GPUs of a host: the sharded backend gives shard s
	// device s, and a single device is 0. Each device draws its SMs on their
	// own rows of a profile.
	ID int

	// Prof, when non-nil, receives one telemetry.Launch per kernel launch
	// (see launch). A nil Prof costs one pointer test per launch and nothing
	// per phase or lane.
	Prof *telemetry.Recorder

	// Faults, when non-nil, is consulted once per LaunchKernel call and may
	// fail, stall, or livelock the launch (see fault.go).
	Faults FaultInjector

	memUsed int64 // atomic

	// KernelsRun counts launches, faulted ones included; it is the launch
	// ordinal the fault injector sees. Per-launch block, phase and lane
	// counts go to the profiler.
	KernelsRun atomic.Int64
}

// TallyKernel is the optional Kernel extension for kernels whose lanes
// count into single-writer per-SM tallies (indexed by Thread.SM) instead of
// shared atomics. launch() calls GrowTallies with the launch's SM count on
// the launching goroutine before any block runs, and FoldTallies on the same
// goroutine after the grid has joined, and the ledger it returns is the
// launch record's Work, so each shared total advances once per launch,
// whatever the lane count.
type TallyKernel interface {
	Kernel
	// GrowTallies makes room for sms per-SM tallies.
	GrowTallies(sms int)
	// FoldTallies folds and zeroes the per-SM tallies, returning the
	// launch's work ledger.
	FoldTallies() telemetry.WorkCounts
}

// NamedKernel is implemented by kernels that report a stable name to
// profilers; others are named by their Go type.
type NamedKernel interface {
	KernelName() string
}

// KernelName returns the profiling name of k.
func KernelName(k Kernel) string {
	if n, ok := k.(NamedKernel); ok {
		return n.KernelName()
	}
	return fmt.Sprintf("%T", k)
}

// NewDevice returns a Device with n SMs (n <= 0 selects GOMAXPROCS) and no
// memory budget.
func NewDevice(n int) *Device {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	return &Device{NumSMs: n}
}

// ErrOutOfMemory is returned by Alloc when a reservation would exceed the
// device's memory budget.
var ErrOutOfMemory = fmt.Errorf("simt: device out of memory")

// Alloc reserves bytes of simulated device memory. It fails with
// ErrOutOfMemory when the budget would be exceeded. Allocation is advisory —
// the engine does not own the backing Go slices — but lets higher layers
// reproduce the paper's OOM behaviour deterministically.
func (d *Device) Alloc(bytes int64) error {
	if bytes < 0 {
		return fmt.Errorf("simt: negative allocation %d", bytes)
	}
	for {
		used := atomic.LoadInt64(&d.memUsed)
		if d.MemBudget > 0 && used+bytes > d.MemBudget {
			return fmt.Errorf("%w: want %d bytes, %d of %d in use",
				ErrOutOfMemory, bytes, used, d.MemBudget)
		}
		if atomic.CompareAndSwapInt64(&d.memUsed, used, used+bytes) {
			return nil
		}
	}
}

// Free releases bytes of simulated device memory.
func (d *Device) Free(bytes int64) {
	if n := atomic.AddInt64(&d.memUsed, -bytes); n < 0 {
		atomic.StoreInt64(&d.memUsed, 0)
	}
}

// MemUsed reports the bytes currently reserved.
func (d *Device) MemUsed() int64 { return atomic.LoadInt64(&d.memUsed) }

// Kernel is a lockstep phase kernel. The engine calls BlockPhase(p, t) once
// per block and phase; see the package comment for the exact semantics.
// All phases of a block run back to back on SM t.SM before that SM starts
// its next block, so per-lane state that must survive across phases may
// live in per-SM storage indexed by t.SM and the lane — one block's worth,
// reused block after block, as registers are on hardware. State that must
// outlive the block belongs in arrays indexed by the global thread index
// t.Block*t.BlockDim + lane.
type Kernel interface {
	// NumPhases returns how many lockstep phases the kernel has. It is
	// called once per launch.
	NumPhases() int
	// BlockPhase runs phase p for the lanes of block t.Block, in lane
	// order; t carries the block's coordinates with t.BlockDim the launch
	// width, and t.Lane is the kernel's to set. A kernel may skip lanes it
	// knows to be idle. It returns the number of lanes it actually ran;
	// the launch counts it, clamped to [0, BlockDim], in its SM's
	// telemetry.SMSpan Lanes. Every phase barrier still counts in the
	// span's Phases, whatever the count.
	BlockPhase(p int, t *Thread) (lanes int)
}

// SharedKernel is implemented by kernels that want block-shared memory. The
// engine zeroes the arena before each block starts.
type SharedKernel interface {
	Kernel
	// SharedUint64s returns the per-block shared-memory arena size in
	// 64-bit words.
	SharedUint64s() int
}

// Thread describes a block's coordinates during a phase call.
type Thread struct {
	Block    int // block index within the grid
	Lane     int // thread index within the block (threadIdx.x), set by the kernel
	BlockDim int // threads per block
	SM       int // streaming multiprocessor executing the block
	Shared   []uint64
}

// LaunchKernel runs kernel k on a grid of gridDim blocks of blockDim threads
// under ctx and the device's fault injector, and blocks until every thread
// block has finished (cudaDeviceSynchronize semantics). gridDim or blockDim
// of zero is a no-op. It returns ctx.Err() when the context is canceled or its
// deadline expires — cancellation is observed at block granularity, so a
// launch in flight stops within one block's worth of work per SM — and
// ErrKernelLaunch / ErrLivelock when the injector fails the launch. The
// kernel's memory effects are undefined after a non-nil error (blocks may
// have partially executed); callers recover by rolling back to their last
// checkpoint, as the nulpa simt backend does.
func (d *Device) LaunchKernel(ctx context.Context, gridDim, blockDim int, k Kernel) error {
	if gridDim <= 0 || blockDim <= 0 {
		return nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	// Kernel-launch span: the leaf of the job → detect → iteration tree. The
	// FromContext guard keeps the untraced path allocation-free — the name
	// concatenation below only happens once a parent span exists.
	var ks *trace.Span
	if trace.FromContext(ctx) != nil {
		_, ks = trace.Child(ctx, "kernel:"+KernelName(k))
		ks.SetInt("grid", int64(gridDim))
		ks.SetInt("blockDim", int64(blockDim))
	}
	finish := func(err error) error {
		if err != nil {
			ks.SetString("error", err.Error())
			ks.SetBool("canceled", errors.Is(err, context.Canceled) ||
				errors.Is(err, context.DeadlineExceeded))
		}
		ks.End()
		return err
	}
	if d.Faults != nil {
		// The launch ordinal is read before launch() increments it, so the
		// injector sees a 0-based, strictly increasing sequence per device.
		switch f := d.Faults.LaunchFault(KernelName(k), d.KernelsRun.Load()); f.Kind {
		case FaultLaunchFail:
			d.KernelsRun.Add(1)
			ks.Event("fault:kernel-launch-fail", nil)
			return finish(fmt.Errorf("%w: %s (%d×%d)", ErrKernelLaunch, KernelName(k), gridDim, blockDim))
		case FaultLivelock:
			d.KernelsRun.Add(1)
			livelockSpins.Add(f.Spins)
			if ks != nil {
				ks.Event("fault:livelock", map[string]any{"spins": f.Spins})
			}
			return finish(fmt.Errorf("%w: %s after %d CAS retries", ErrLivelock, KernelName(k), f.Spins))
		case FaultStall:
			// Stall one SM (chosen by launch ordinal) before it drains its
			// blocks — preemption or throttling. The pick ranges over the
			// SMs this launch starts, min(NumSMs, gridDim), so a small grid
			// still stalls. The kernel still completes correctly; only the
			// deadline above can turn this into an error.
			stall := stallSpec{sm: int(d.KernelsRun.Load()) % min(d.NumSMs, gridDim), d: f.Stall}
			if ks != nil {
				ks.Event("fault:stall", map[string]any{
					"sm": int64(stall.sm), "stallUs": stall.d.Microseconds(),
				})
			}
			d.launch(ctx, gridDim, blockDim, k, stall)
			return finish(ctx.Err())
		}
	}
	d.launch(ctx, gridDim, blockDim, k, stallSpec{sm: -1})
	return finish(ctx.Err())
}

// stallSpec tells launch to delay one SM; sm < 0 means no stall.
type stallSpec struct {
	sm int
	d  time.Duration
}

// launch runs the grid for LaunchKernel. A profiled launch builds its whole
// telemetry.Launch here: each SM goroutine writes only its own SMs slot, and
// the launching goroutine hands the record to the device's profiler once
// the grid has joined.
func (d *Device) launch(ctx context.Context, gridDim, blockDim int, k Kernel, stall stallSpec) {
	d.KernelsRun.Add(1)
	phases := k.NumPhases()
	sharedWords := 0
	if sk, ok := k.(SharedKernel); ok {
		sharedWords = sk.SharedUint64s()
	}
	nSM := min(d.NumSMs, gridDim)
	tk, _ := k.(TallyKernel)
	if tk != nil {
		tk.GrowTallies(nSM)
	}
	prof := d.Prof
	var l telemetry.Launch
	if prof != nil {
		l = telemetry.Launch{Kernel: KernelName(k), Device: d.ID, Grid: gridDim, BlockDim: blockDim,
			SMs: make([]telemetry.SMSpan, nSM), Start: time.Now()}
	}
	spans := l.SMs
	// Cancellation is observed at block granularity: a watcher goroutine
	// flips an atomic flag the SM loops poll between blocks, so the hot path
	// costs one atomic load per block and nothing per phase or lane.
	var canceled atomic.Bool
	done := ctx.Done()
	if done != nil {
		stopWatch := make(chan struct{})
		defer close(stopWatch)
		go func() {
			select {
			case <-done:
				canceled.Store(true)
			case <-stopWatch:
			}
		}()
	}
	var wg sync.WaitGroup
	for sm := 0; sm < nSM; sm++ {
		wg.Add(1)
		go func(sm int) {
			defer wg.Done()
			if sm == stall.sm && stall.d > 0 {
				// Injected stall: this SM starts late. Cut short by ctx so a
				// stalled kernel still honours cancellation promptly.
				timer := time.NewTimer(stall.d)
				select {
				case <-timer.C:
				case <-done:
					timer.Stop()
				}
			}
			var smStart time.Time
			if spans != nil {
				smStart = time.Now()
			}
			var shared []uint64
			if sharedWords > 0 {
				shared = make([]uint64, sharedWords)
			}
			t := Thread{BlockDim: blockDim, SM: sm, Shared: shared}
			var blocks, lanes, phasesRun int64
			for b := sm; b < gridDim; b += d.NumSMs {
				if canceled.Load() {
					break
				}
				for i := range shared {
					shared[i] = 0
				}
				t.Block = b
				for p := 0; p < phases; p++ {
					phasesRun++
					lanes += int64(min(max(k.BlockPhase(p, &t), 0), blockDim))
				}
				blocks++
			}
			if spans != nil {
				spans[sm] = telemetry.SMSpan{SM: sm, Start: smStart, End: time.Now(),
					Blocks: blocks, Phases: phasesRun, Lanes: lanes}
			}
		}(sm)
	}
	wg.Wait()
	if tk != nil {
		l.Work = tk.FoldTallies()
	}
	if prof != nil {
		l.End = time.Now()
		report(prof, l)
	}
}

// LaunchKernel1D runs k with enough blocks of blockDim threads to cover
// total threads; the last block's lanes beyond total still belong to the
// grid (as on hardware), so the kernel must bounds-check its global thread
// indices. See LaunchKernel.
func (d *Device) LaunchKernel1D(ctx context.Context, total, blockDim int, k Kernel) error {
	if total <= 0 {
		return nil
	}
	grid := (total + blockDim - 1) / blockDim
	return d.LaunchKernel(ctx, grid, blockDim, k)
}
