package simt_test

import (
	"context"
	"testing"

	"nulpa/internal/simt"
	"nulpa/internal/telemetry"
)

// workBusyKernel is busyKernel plus the per-SM tally extension, with
// counting gated the way real kernels gate it (one bool checked per site)
// and lanes adding into their SM's tally.
type workBusyKernel struct {
	busyKernel
	count bool
	sms   []telemetry.WorkCounts
}

func (k *workBusyKernel) BlockPhase(p int, t *simt.Thread) int {
	lanes := k.busyKernel.BlockPhase(p, t)
	if k.count {
		w := &k.sms[t.SM]
		w.EdgeVisits += int64(lanes)
		w.ActiveVertices += int64(lanes)
	}
	return lanes
}

func (k *workBusyKernel) GrowTallies(sms int) {
	if sms > len(k.sms) {
		k.sms = make([]telemetry.WorkCounts, sms)
	}
}

func (k *workBusyKernel) FoldTallies() telemetry.WorkCounts {
	var sum telemetry.WorkCounts
	for i := range k.sms {
		sum = sum.Add(k.sms[i])
		k.sms[i] = telemetry.WorkCounts{}
	}
	return sum
}

// TestWorkCountingDisabledNoAllocs is the work-accounting guardrail: with no
// profiler attached, launching a counting kernel must allocate exactly as
// much as launching a plain one — the TallyKernel interface and the gated
// counting sites must cost nothing when nobody is listening. A
// regression here means work accounting leaked allocations into the
// profiling-off hot path.
func TestWorkCountingDisabledNoAllocs(t *testing.T) {
	const grid, blockDim = 4, 64
	dev := simt.NewDevice(1)
	sink := make([]uint32, grid*blockDim)
	plain := &busyKernel{phases: 8, sink: sink}
	counting := &workBusyKernel{busyKernel: busyKernel{phases: 8, sink: sink}}

	aPlain := testing.AllocsPerRun(20, func() { dev.LaunchKernel(context.Background(), grid, blockDim, plain) })
	aWork := testing.AllocsPerRun(20, func() { dev.LaunchKernel(context.Background(), grid, blockDim, counting) })
	if aWork > aPlain {
		t.Fatalf("counting kernel allocates with profiling off: %v allocs vs %v plain", aWork, aPlain)
	}

	// The fold itself is allocation-free, so even the enabled path adds no
	// garbage — only plain per-SM adds.
	counting.count = true
	dev.LaunchKernel(context.Background(), grid, blockDim, counting)
	if a := testing.AllocsPerRun(100, func() { counting.FoldTallies() }); a > 0 {
		t.Errorf("FoldTallies allocates %v per call, want 0", a)
	}

	// Contrast: with a profiler attached the same kernel reports real
	// numbers, proving the guard measures the gated path.
	rec := telemetry.NewRecorder()
	dev.Prof = rec
	defer func() { dev.Prof = nil }()
	dev.LaunchKernel(context.Background(), grid, blockDim, counting)
	work := rec.KernelWorkByName()
	if len(work) == 0 {
		t.Fatal("no kernel work recorded with Recorder attached")
	}
	for _, w := range work {
		if w.EdgeVisits <= 0 {
			t.Errorf("recorded kernel work has EdgeVisits %d, want > 0", w.EdgeVisits)
		}
	}
}
