package simt

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"nulpa/internal/metrics"
	"nulpa/internal/telemetry"
)

// namedNop is a trivially cheap named kernel for profiler-wiring tests.
type namedNop struct{ sink []uint32 }

func (k *namedNop) NumPhases() int { return 2 }
func (k *namedNop) BlockPhase(p int, t *Thread) int {
	base := t.Block * t.BlockDim
	for id := base; id < min(base+t.BlockDim, len(k.sink)); id++ {
		k.sink[id]++
	}
	return t.BlockDim
}
func (k *namedNop) KernelName() string { return "named-nop" }

// TestMetricsProfilerFeedsRegistry: a launch profiled by a Recorder feeds
// the simt_* families itself, with no metrics-specific profiler attached.
func TestMetricsProfilerFeedsRegistry(t *testing.T) {
	dev := NewDevice(2)
	dev.Prof = telemetry.NewRecorder()

	before := mKernelLaunches.With("named-nop").Value()
	blocksBefore := mBlocks.Value()
	k := &namedNop{sink: make([]uint32, 8*32)}
	dev.LaunchKernel(context.Background(), 8, 32, k)

	if got := mKernelLaunches.With("named-nop").Value(); got != before+1 {
		t.Fatalf("launch counter = %d, want %d", got, before+1)
	}
	if got := mBlocks.Value(); got != blocksBefore+8 {
		t.Fatalf("blocks counter advanced by %d, want 8", got-blocksBefore)
	}
	occ := mOccupancy.Value()
	if occ < 0 || occ > 1.5 { // tiny kernels can jitter above 1 by rounding
		t.Errorf("occupancy = %g, want roughly in [0,1]", occ)
	}
	// An unprofiled launch leaves the families alone.
	dev.Prof = nil
	dev.LaunchKernel(context.Background(), 8, 32, k)
	if got := mKernelLaunches.With("named-nop").Value(); got != before+1 {
		t.Errorf("unprofiled launch moved the launch counter to %d, want %d", got, before+1)
	}
}

func TestContentionCountersExported(t *testing.T) {
	var b bytes.Buffer
	if err := metrics.Default().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if want := "# TYPE simt_cas_retries_total counter"; !strings.Contains(out, want) {
		t.Errorf("exposition missing %q", want)
	}
}
