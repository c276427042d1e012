package simt_test

import (
	"context"
	"testing"

	"nulpa/internal/gen"
	"nulpa/internal/nulpa"
	"nulpa/internal/simt"
	"nulpa/internal/telemetry"
)

// busyKernel is a trivially cheap kernel whose phase count is configurable,
// so the launch-fixed allocation cost (goroutines, waitgroup) can be
// separated from any per-phase cost.
type busyKernel struct {
	phases int
	sink   []uint32
}

func (k *busyKernel) NumPhases() int { return k.phases }

func (k *busyKernel) BlockPhase(p int, t *simt.Thread) int {
	base := t.Block * t.BlockDim
	for id := base; id < min(base+t.BlockDim, len(k.sink)); id++ {
		k.sink[id]++
	}
	return t.BlockDim
}

// TestKernelPhaseHotPathNoTelemetryAllocs is the telemetry guardrail: with
// profiling disabled (nil Device.Prof), running 64 phases must allocate
// exactly as much as running one phase — i.e. the per-phase/per-lane hot
// path allocates nothing, and all launch overhead is phase-count-independent.
// A regression here means telemetry instrumentation leaked into the phase
// loop.
func TestKernelPhaseHotPathNoTelemetryAllocs(t *testing.T) {
	const grid, blockDim = 4, 64
	dev := simt.NewDevice(1) // single SM keeps goroutine accounting deterministic
	sink := make([]uint32, grid*blockDim)
	k1 := &busyKernel{phases: 1, sink: sink}
	k64 := &busyKernel{phases: 64, sink: sink}

	a1 := testing.AllocsPerRun(20, func() { dev.LaunchKernel(context.Background(), grid, blockDim, k1) })
	a64 := testing.AllocsPerRun(20, func() { dev.LaunchKernel(context.Background(), grid, blockDim, k64) })
	if a64 > a1 {
		t.Fatalf("phase hot path allocates with telemetry off: %v allocs at 64 phases vs %v at 1", a64, a1)
	}

	// Sanity check the contrast: the same launch with a profiler attached is
	// allowed to allocate (it records spans), proving the guardrail measures
	// the right thing.
	dev.Prof = telemetry.NewRecorder()
	aProf := testing.AllocsPerRun(20, func() { dev.LaunchKernel(context.Background(), grid, blockDim, k64) })
	if aProf <= a64 {
		t.Logf("note: profiler-on launch allocated %v (off: %v)", aProf, a64)
	}
}

func detectBench(b *testing.B, profile bool) {
	g := gen.Web(gen.DefaultWeb(5000, 8, 1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opt := nulpa.DefaultOptions()
		opt.Device = simt.NewDevice(0)
		if profile {
			opt.Profiler = telemetry.NewRecorder()
		}
		if _, err := nulpa.Detect(g, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDetectTelemetryOff and ...On quantify the full-run overhead of
// attaching a Recorder: compare ns/op and allocs/op between the two.
func BenchmarkDetectTelemetryOff(b *testing.B) { detectBench(b, false) }
func BenchmarkDetectTelemetryOn(b *testing.B)  { detectBench(b, true) }
