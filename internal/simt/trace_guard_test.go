package simt_test

import (
	"context"
	"testing"

	"nulpa/internal/simt"
	"nulpa/internal/trace"
)

// TestLaunchKernelUntracedNoAllocRegression pins the kernel-launch site
// specifically: LaunchKernel under a span-free context must allocate exactly
// as much as before tracing existed (the launch fixtures — goroutines,
// waitgroup — are allowed; span bookkeeping is not). The traced launch is
// allowed to allocate, proving the guard measures the instrumentation.
func TestLaunchKernelUntracedNoAllocRegression(t *testing.T) {
	const grid, blockDim = 4, 64
	dev := simt.NewDevice(1)
	sink := make([]uint32, grid*blockDim)
	k := &busyKernel{phases: 1, sink: sink}
	ctx := context.Background()

	plain := testing.AllocsPerRun(20, func() { dev.Launch(grid, blockDim, k) })
	untraced := testing.AllocsPerRun(20, func() {
		if err := dev.LaunchKernel(ctx, grid, blockDim, k); err != nil {
			t.Fatal(err)
		}
	})
	// LaunchKernel adds a cancellation watcher (one goroutine + one channel)
	// over Launch; allow that fixed cost but nothing proportional to spans.
	if untraced > plain+4 {
		t.Errorf("untraced LaunchKernel allocates %v/op vs %v for Launch — span plumbing on the hot path?", untraced, plain)
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
