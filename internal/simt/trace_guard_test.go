package simt

import (
	"context"
	"testing"

	"nulpa/internal/trace"
)

// TestLaunchKernelUntracedNoAllocRegression pins the kernel-launch site
// specifically: LaunchKernel under a span-free context must allocate exactly
// as much as the span-free launch body it wraps, i.e. as before tracing
// existed (the launch fixtures — goroutines, waitgroup — are allowed; span
// bookkeeping is not). The traced launch is allowed to allocate, proving the
// guard measures the instrumentation.
func TestLaunchKernelUntracedNoAllocRegression(t *testing.T) {
	const grid, blockDim = 4, 64
	dev := NewDevice(1)
	sink := make([]uint32, grid*blockDim)
	k := PhaseFunc{Phases: 1, F: func(_ int, th *Thread) {
		if id := th.Block*th.BlockDim + th.Lane; id < len(sink) {
			sink[id]++
		}
	}}
	ctx := context.Background()
	noStall := stallSpec{sm: -1}

	plain := testing.AllocsPerRun(20, func() { dev.launch(ctx, grid, blockDim, k, noStall) })
	untraced := testing.AllocsPerRun(20, func() {
		if err := dev.LaunchKernel(ctx, grid, blockDim, k); err != nil {
			t.Fatal(err)
		}
	})
	// Allow a small fixed cost over the bare body but nothing proportional
	// to spans.
	if untraced > plain+4 {
		t.Errorf("untraced LaunchKernel allocates %v/op vs %v for launch — span plumbing on the hot path?", untraced, plain)
	}

	// The same bound under a cancellable context, where both sides also pay
	// for the cancellation watcher.
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	plainC := testing.AllocsPerRun(20, func() { dev.launch(cctx, grid, blockDim, k, noStall) })
	untracedC := testing.AllocsPerRun(20, func() {
		if err := dev.LaunchKernel(cctx, grid, blockDim, k); err != nil {
			t.Fatal(err)
		}
	})
	if untracedC > plainC+4 {
		t.Errorf("untraced cancellable LaunchKernel allocates %v/op vs %v for launch — span plumbing on the hot path?", untracedC, plainC)
	}

	tr := trace.New(64)
	tr.SetEnabled(true)
	tctx, root := tr.Root(ctx, "run")
	traced := testing.AllocsPerRun(20, func() {
		if err := dev.LaunchKernel(tctx, grid, blockDim, k); err != nil {
			t.Fatal(err)
		}
	})
	root.End()
	if traced <= untraced {
		t.Logf("note: traced launch allocated %v (untraced: %v)", traced, untraced)
	}
}
