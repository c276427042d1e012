package simt

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"nulpa/internal/trace"
)

// scriptInjector fails/stalls/livelocks specific launch ordinals.
type scriptInjector struct {
	faults map[int64]LaunchFault
	calls  atomic.Int64
}

func (s *scriptInjector) LaunchFault(kernel string, launch int64) LaunchFault {
	s.calls.Add(1)
	return s.faults[launch]
}

func TestLaunchKernelNoFaultsRuns(t *testing.T) {
	d := NewDevice(4)
	n := 512
	out := make([]uint32, n)
	k := PhaseFunc{Phases: 1, F: func(p int, th *Thread) {
		if i := th.Block*th.BlockDim + th.Lane; i < n {
			out[i] = uint32(i)
		}
	}}
	if err := d.LaunchKernel1D(nil, n, 64, k); err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != uint32(i) {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
}

func TestLaunchKernelFailure(t *testing.T) {
	d := NewDevice(2)
	d.Faults = &scriptInjector{faults: map[int64]LaunchFault{0: {Kind: FaultLaunchFail}}}
	var ran atomic.Bool
	k := PhaseFunc{Phases: 1, F: func(int, *Thread) { ran.Store(true) }}
	err := d.LaunchKernel(context.Background(), 2, 32, k)
	if !errors.Is(err, ErrKernelLaunch) {
		t.Fatalf("err = %v, want ErrKernelLaunch", err)
	}
	if ran.Load() {
		t.Error("kernel body ran despite a failed launch")
	}
	// The failed launch consumed ordinal 0; the next launch succeeds.
	if err := d.LaunchKernel(context.Background(), 2, 32, k); err != nil {
		t.Fatal(err)
	}
	if !ran.Load() {
		t.Error("second launch did not run")
	}
	if got := d.KernelsRun.Load(); got != 2 {
		t.Errorf("KernelsRun = %d, want 2 (failed launches count)", got)
	}
}

func TestLaunchKernelLivelock(t *testing.T) {
	d := NewDevice(2)
	d.Faults = &scriptInjector{faults: map[int64]LaunchFault{0: {Kind: FaultLivelock, Spins: 1000}}}
	before := livelockSpins.Load()
	err := d.LaunchKernel(context.Background(), 2, 32, PhaseFunc{Phases: 1, F: func(int, *Thread) {}})
	if !errors.Is(err, ErrLivelock) {
		t.Fatalf("err = %v, want ErrLivelock", err)
	}
	if got := livelockSpins.Load() - before; got != 1000 {
		t.Errorf("livelock charged %d CAS retries, want 1000", got)
	}
}

func TestLaunchKernelStallCompletes(t *testing.T) {
	d := NewDevice(2)
	d.Faults = &scriptInjector{faults: map[int64]LaunchFault{0: {Kind: FaultStall, Stall: 5 * time.Millisecond}}}
	var lanes atomic.Int64
	k := PhaseFunc{Phases: 1, F: func(int, *Thread) { lanes.Add(1) }}
	start := time.Now()
	if err := d.LaunchKernel(context.Background(), 4, 8, k); err != nil {
		t.Fatal(err)
	}
	if got := lanes.Load(); got != 32 {
		t.Errorf("lanes = %d, want 32: a stall must not drop blocks", got)
	}
	if time.Since(start) < 5*time.Millisecond {
		t.Error("launch returned before the stall elapsed")
	}
}

// TestLaunchKernelStallOnSmallGrid: a grid smaller than the device starts
// only gridDim SMs, and a stall must land on one of them — picked from all
// NumSMs, launch 3 of an 8-SM device chose SM 3, which a 2-block grid never
// starts, and the stall was dropped while the span still reported it.
func TestLaunchKernelStallOnSmallGrid(t *testing.T) {
	const grid, stall = 2, 50 * time.Millisecond
	d := NewDevice(8)
	d.Faults = &scriptInjector{faults: map[int64]LaunchFault{3: {Kind: FaultStall, Stall: stall}}}
	tr := trace.New(16)
	tr.SetEnabled(true)
	ctx, root := tr.Root(context.Background(), "run")
	k := PhaseFunc{Phases: 1, F: func(int, *Thread) {}}
	for launch := 0; launch < 3; launch++ {
		if err := d.LaunchKernel(ctx, grid, 8, k); err != nil {
			t.Fatal(err)
		}
	}
	start := time.Now()
	if err := d.LaunchKernel(ctx, grid, 8, k); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took < stall {
		t.Errorf("stalled launch took %v, want at least the %v stall", took, stall)
	}
	root.End()
	var events int
	for _, sd := range tr.Spans() {
		for _, ev := range sd.Events {
			if ev.Name != "fault:stall" {
				continue
			}
			events++
			if sm, ok := ev.Attrs["sm"].(int64); !ok || sm < 0 || sm >= grid {
				t.Errorf("fault:stall on SM %v, want one of the grid's %d SMs", ev.Attrs["sm"], grid)
			}
		}
	}
	if events != 1 {
		t.Errorf("%d fault:stall events, want 1", events)
	}
}

func TestLaunchKernelCanceledBeforeStart(t *testing.T) {
	d := NewDevice(2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := false
	err := d.LaunchKernel(ctx, 2, 32, PhaseFunc{Phases: 1, F: func(int, *Thread) { ran = true }})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran {
		t.Error("kernel ran under a pre-canceled context")
	}
}

// TestLaunchKernelCancelMidFlight launches a grid whose blocks block on a
// channel, cancels, then releases the blocks: the launch must return the
// cancellation error without executing the full grid.
func TestLaunchKernelCancelMidFlight(t *testing.T) {
	d := NewDevice(1) // one SM: blocks run strictly in sequence
	ctx, cancel := context.WithCancel(context.Background())
	release := make(chan struct{})
	var blocks atomic.Int64
	k := PhaseFunc{Phases: 1, F: func(p int, th *Thread) {
		if th.Lane != 0 {
			return
		}
		if th.Block == 0 {
			cancel()
			<-release
		}
		blocks.Add(1)
	}}
	done := make(chan error, 1)
	go func() { done <- d.LaunchKernel(ctx, 100, 1, k) }()
	// Give the watcher time to observe the cancel while block 0 is parked.
	time.Sleep(10 * time.Millisecond)
	close(release)
	err := <-done
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := blocks.Load(); got >= 100 {
		t.Errorf("all %d blocks ran despite cancellation", got)
	}
}

func TestLaunchKernelDeadline(t *testing.T) {
	d := NewDevice(2)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Millisecond)
	defer cancel()
	k := PhaseFunc{Phases: 1, F: func(p int, th *Thread) {
		if th.Lane == 0 {
			time.Sleep(time.Millisecond)
		}
	}}
	err := d.LaunchKernel(ctx, 64, 4, k)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

func TestFaultKindString(t *testing.T) {
	for k, want := range map[FaultKind]string{
		FaultNone: "none", FaultLaunchFail: "launch-fail",
		FaultStall: "stall", FaultLivelock: "livelock",
	} {
		if got := k.String(); got != want {
			t.Errorf("FaultKind(%d).String() = %q, want %q", k, got, want)
		}
	}
}
