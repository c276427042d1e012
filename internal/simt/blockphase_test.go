package simt

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"nulpa/internal/telemetry"
)

// countingBlockKernel is a Kernel whose BlockPhase returns lanes(block,
// phase) and counts its calls.
type countingBlockKernel struct {
	phases int
	lanes  func(block, phase int) int
	calls  atomic.Int64
	blocks atomic.Int64 // phase-0 calls: blocks started
	hook   func(block, phase int)
}

func (k *countingBlockKernel) NumPhases() int { return k.phases }

func (k *countingBlockKernel) BlockPhase(p int, t *Thread) int {
	k.calls.Add(1)
	if p == 0 {
		k.blocks.Add(1)
	}
	if k.hook != nil {
		k.hook(t.Block, p)
	}
	return k.lanes(t.Block, p)
}

func (k *countingBlockKernel) KernelName() string { return "block-phase-test" }

// TestBlockPhaseLaneAccounting: a kernel's BlockPhase is called once per
// (block, phase); the profiler's SMSpan lanes and simt_lanes_total both sum
// the counts it returns, while SMSpan phases still count every phase
// barrier.
func TestBlockPhaseLaneAccounting(t *testing.T) {
	const grid, blockDim, phases, sms = 11, 64, 3, 3
	lanes := func(b, p int) int { return (b*7 + p*13) % (blockDim + 1) }
	var want int64
	for b := 0; b < grid; b++ {
		for p := 0; p < phases; p++ {
			want += int64(lanes(b, p))
		}
	}

	d := NewDevice(sms)
	rec := telemetry.NewRecorder()
	d.Prof = rec
	lanesBefore := mLanes.Value()
	k := &countingBlockKernel{phases: phases, lanes: lanes}
	d.LaunchKernel(context.Background(), grid, blockDim, k)

	if got := k.calls.Load(); got != grid*phases {
		t.Errorf("BlockPhase calls = %d, want %d (one per block and phase)", got, grid*phases)
	}
	s := rec.KernelSummaries()[0]
	if s.Lanes != want || s.Phases != grid*phases {
		t.Errorf("SMSpan lanes/phases = %d/%d, want %d/%d", s.Lanes, s.Phases, want, grid*phases)
	}
	if s.Blocks != grid {
		t.Errorf("SMSpan blocks = %d, want %d", s.Blocks, grid)
	}
	if got := mLanes.Value() - lanesBefore; got != want {
		t.Errorf("simt_lanes_total advanced by %d, want %d", got, want)
	}
}

// TestBlockPhaseLaneCountClamped: a returned count outside [0, BlockDim]
// is clamped — a block cannot run more lanes than it has, nor fewer than
// none — so the lane counters stay within the grid's true size.
func TestBlockPhaseLaneCountClamped(t *testing.T) {
	const grid, blockDim = 4, 32
	d := NewDevice(2)
	rec := telemetry.NewRecorder()
	d.Prof = rec
	k := &countingBlockKernel{phases: 2, lanes: func(_, p int) int {
		if p == 0 {
			return blockDim + 100
		}
		return -5
	}}
	d.LaunchKernel(context.Background(), grid, blockDim, k)
	s := rec.KernelSummaries()[0]
	if s.Lanes != grid*blockDim {
		t.Errorf("lanes = %d, want %d: phase 0 clamped to BlockDim, phase 1 to 0", s.Lanes, grid*blockDim)
	}
	if s.Phases != grid*2 {
		t.Errorf("phases = %d, want %d", s.Phases, grid*2)
	}
}

// TestBlockPhaseCancelBetweenBlocks: cancellation is still observed between
// blocks when the kernel runs whole blocks per call.
func TestBlockPhaseCancelBetweenBlocks(t *testing.T) {
	d := NewDevice(1)
	ctx, cancel := context.WithCancel(context.Background())
	release := make(chan struct{})
	k := &countingBlockKernel{phases: 2, lanes: func(int, int) int { return 1 }}
	k.hook = func(b, p int) {
		if b == 0 && p == 0 {
			cancel()
			<-release
		}
	}
	done := make(chan error, 1)
	go func() { done <- d.LaunchKernel(ctx, 100, 32, k) }()
	time.Sleep(10 * time.Millisecond)
	close(release)
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := k.blocks.Load(); got >= 100 {
		t.Errorf("all %d blocks ran despite cancellation", got)
	}
	if got := k.calls.Load(); got%2 != 0 {
		t.Errorf("%d BlockPhase calls: a block stopped between its phases", got)
	}
}

// TestBlockPhaseStallCompletes: an injected SM stall delays a block-phase
// kernel but still completes every block.
func TestBlockPhaseStallCompletes(t *testing.T) {
	d := NewDevice(2)
	rec := telemetry.NewRecorder()
	d.Prof = rec
	d.Faults = &scriptInjector{faults: map[int64]LaunchFault{0: {Kind: FaultStall, Stall: 5 * time.Millisecond}}}
	k := &countingBlockKernel{phases: 3, lanes: func(int, int) int { return 2 }}
	start := time.Now()
	if err := d.LaunchKernel(context.Background(), 9, 16, k); err != nil {
		t.Fatal(err)
	}
	if got := k.calls.Load(); got != 9*3 {
		t.Errorf("BlockPhase calls = %d, want 27: a stall must not drop blocks", got)
	}
	if got := rec.KernelSummaries()[0].Lanes; got != 9*3*2 {
		t.Errorf("lanes = %d, want 54", got)
	}
	if time.Since(start) < 5*time.Millisecond {
		t.Error("launch returned before the stall elapsed")
	}
}
