package simt_test

import (
	"testing"

	"nulpa/internal/simt"
	"nulpa/internal/telemetry"
)

// workBusyKernel is busyKernel plus the work-reporting and per-SM tally
// extensions, with counting gated the way real kernels gate it (one bool
// checked per site) and lanes adding into their SM's shard.
type workBusyKernel struct {
	busyKernel
	count bool
	work  simt.WorkAccum
}

func (k *workBusyKernel) Phase(p int, t *simt.Thread) {
	k.busyKernel.Phase(p, t)
	if k.count {
		w := k.work.Shard(t.SM)
		w.EdgeVisits++
		w.ActiveVertices++
	}
}

func (k *workBusyKernel) GrowTallies(sms int) { k.work.Grow(sms) }
func (k *workBusyKernel) FoldTallies()        {}

func (k *workBusyKernel) TakeWork() (edgeVisits, labelFlips, hashProbes, hashCollisions, activeVertices int64) {
	return k.work.Take()
}

// TestWorkCountingDisabledNoAllocs is the work-accounting guardrail: with no
// profiler attached, launching a work-reporting kernel must allocate exactly
// as much as launching a plain one — the WorkReportingKernel interface and
// the gated counting sites must cost nothing when nobody is listening. A
// regression here means work accounting leaked allocations into the
// profiling-off hot path.
func TestWorkCountingDisabledNoAllocs(t *testing.T) {
	const grid, blockDim = 4, 64
	dev := simt.NewDevice(1)
	sink := make([]uint32, grid*blockDim)
	plain := &busyKernel{phases: 8, sink: sink}
	counting := &workBusyKernel{busyKernel: busyKernel{phases: 8, sink: sink}}

	aPlain := testing.AllocsPerRun(20, func() { dev.Launch(grid, blockDim, plain) })
	aWork := testing.AllocsPerRun(20, func() { dev.Launch(grid, blockDim, counting) })
	if aWork > aPlain {
		t.Fatalf("work-reporting kernel allocates with profiling off: %v allocs vs %v plain", aWork, aPlain)
	}

	// The accumulator drain itself is allocation-free, so even the enabled
	// path adds no garbage — only plain per-SM adds.
	counting.count = true
	dev.Launch(grid, blockDim, counting)
	if a := testing.AllocsPerRun(100, func() { counting.TakeWork() }); a > 0 {
		t.Errorf("WorkAccum.Take allocates %v per call, want 0", a)
	}

	// Contrast: with a profiler attached the same kernel reports real
	// numbers, proving the guard measures the gated path.
	rec := telemetry.NewRecorder()
	dev.Prof = rec
	defer func() { dev.Prof = nil }()
	dev.Launch(grid, blockDim, counting)
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
