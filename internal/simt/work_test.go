package simt

import (
	"context"
	"testing"
	"time"

	"nulpa/internal/metrics"
	"nulpa/internal/telemetry"
)

// workKernel counts one edge visit per lane into its SM's tally and returns
// the sums from FoldTallies — the minimal TallyKernel. folds counts the
// FoldTallies calls, which must happen once per launch.
type workKernel struct {
	name  string
	sms   []telemetry.WorkCounts
	folds int
}

func (k *workKernel) NumPhases() int     { return 1 }
func (k *workKernel) KernelName() string { return k.name }

func (k *workKernel) Phase(p int, t *Thread) {
	w := &k.sms[t.SM]
	w.EdgeVisits++
	w.ActiveVertices++
}

func (k *workKernel) GrowTallies(sms int) {
	if sms > len(k.sms) {
		k.sms = make([]telemetry.WorkCounts, sms)
	}
}

func (k *workKernel) FoldTallies() telemetry.WorkCounts {
	k.folds++
	var sum telemetry.WorkCounts
	for i := range k.sms {
		sum = sum.Add(k.sms[i])
		k.sms[i] = telemetry.WorkCounts{}
	}
	return sum
}

// workCapture records KernelWork callbacks alongside the standard Profiler
// hooks.
type workCapture struct {
	begins int
	work   map[int]telemetry.WorkCounts
}

func (w *workCapture) KernelBegin(kernel string, grid, blockDim, sms int) int {
	id := w.begins
	w.begins++
	return id
}

func (w *workCapture) SMSpan(launch, sm int, start, end time.Time, blocks, phases, lanes int64) {}
func (w *workCapture) KernelEnd(launch int, start, end time.Time)                               {}

func (w *workCapture) KernelWork(launch int, c telemetry.WorkCounts) {
	if w.work == nil {
		w.work = map[int]telemetry.WorkCounts{}
	}
	w.work[launch] = c
}

// TestWorkFlowsToProfiler pins the device seam: a TallyKernel's folded
// ledger reaches the Profiler exactly once per launch, with the values the
// lanes accumulated.
func TestWorkFlowsToProfiler(t *testing.T) {
	dev := NewDevice(2)
	cap := &workCapture{}
	dev.Prof = cap
	k := &workKernel{name: "work-test"}
	const grid, blockDim = 3, 8
	dev.LaunchKernel(context.Background(), grid, blockDim, k)
	if len(cap.work) != 1 {
		t.Fatalf("KernelWork called %d times, want 1", len(cap.work))
	}
	got := cap.work[0]
	want := int64(grid * blockDim)
	if got.EdgeVisits != want || got.ActiveVertices != want {
		t.Errorf("work = %+v, want edgeVisits=activeVertices=%d", got, want)
	}
	// Reuse across launches reports per-launch deltas, not running totals.
	dev.LaunchKernel(context.Background(), grid, blockDim, k)
	if got := cap.work[1]; got.EdgeVisits != want {
		t.Errorf("second launch edgeVisits = %d, want %d (drain must reset)", got.EdgeVisits, want)
	}
	if k.folds != 2 {
		t.Errorf("FoldTallies called %d times over 2 launches, want 2", k.folds)
	}
}

// TestMetricsProfilerWorkExport checks that a launch profiled by a Recorder
// adds its folded ledger to the nulpa_work_* families under its kernel.
func TestMetricsProfilerWorkExport(t *testing.T) {
	dev := NewDevice(2)
	dev.Prof = telemetry.NewRecorder()
	before := mWorkEdgeVisits.With("export-test").Value()
	activeBefore := mWorkActive.With("export-test").Value()
	dev.LaunchKernel(context.Background(), 6, 7, &workKernel{name: "export-test"})
	if got := mWorkEdgeVisits.With("export-test").Value() - before; got != 42 {
		t.Errorf("nulpa_work_edge_visits_total{export-test} grew by %d, want 42", got)
	}
	if got := mWorkActive.With("export-test").Value() - activeBefore; got != 42 {
		t.Errorf("nulpa_work_active_vertices_total{export-test} grew by %d, want 42", got)
	}
	// An unprofiled launch counts nothing.
	dev.Prof = nil
	dev.LaunchKernel(context.Background(), 6, 7, &workKernel{name: "export-test"})
	if got := mWorkEdgeVisits.With("export-test").Value() - before; got != 42 {
		t.Errorf("unprofiled launch leaked %d extra edge visits", got-42)
	}
}

// TestSnapshotCoversWorkFamilies ties the metric families to the programmatic
// snapshot flight bundles embed.
func TestSnapshotCoversWorkFamilies(t *testing.T) {
	dev := NewDevice(1)
	dev.Prof = telemetry.NewRecorder()
	dev.LaunchKernel(context.Background(), 1, 5, &workKernel{name: "snap-test"})
	found := false
	for _, mv := range metrics.Default().Snapshot() {
		if mv.Name == "nulpa_work_edge_visits_total" && mv.Label == "snap-test" {
			found = true
			if mv.Value < 5 {
				t.Errorf("snapshot value %v, want >= 5", mv.Value)
			}
			if mv.Kind != "counter" {
				t.Errorf("snapshot kind %q, want counter", mv.Kind)
			}
		}
	}
	if !found {
		t.Error("snapshot missing nulpa_work_edge_visits_total{snap-test}")
	}
}
