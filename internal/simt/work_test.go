package simt

import (
	"context"
	"testing"

	"nulpa/internal/metrics"
	"nulpa/internal/telemetry"
)

// workKernel counts one edge visit per lane, and moves and reverts per
// block, into its SM's tally and returns the sums from FoldTallies — the
// minimal TallyKernel. folds counts the FoldTallies calls, which must
// happen once per launch.
type workKernel struct {
	name           string
	moves, reverts int64
	sms            []telemetry.IterRecord
	folds          int
}

func (k *workKernel) NumPhases() int     { return 1 }
func (k *workKernel) KernelName() string { return k.name }

func (k *workKernel) BlockPhase(p int, t *Thread) int {
	w := &k.sms[t.SM]
	w.EdgeVisits += int64(t.BlockDim)
	w.ActiveVertices += int64(t.BlockDim)
	w.Moves += k.moves
	w.Reverts += k.reverts
	return t.BlockDim
}

func (k *workKernel) GrowTallies(sms int) {
	if sms > len(k.sms) {
		k.sms = make([]telemetry.IterRecord, sms)
	}
}

func (k *workKernel) FoldTallies() telemetry.IterRecord {
	k.folds++
	var sum telemetry.IterRecord
	for i := range k.sms {
		sum = sum.Add(k.sms[i])
		k.sms[i] = telemetry.IterRecord{}
	}
	return sum
}

// TestWorkFlowsToProfiler pins the device seam: a TallyKernel's folded
// ledger reaches the Recorder exactly once per launch, as the launch
// record's Work, with the values the lanes accumulated.
func TestWorkFlowsToProfiler(t *testing.T) {
	dev := NewDevice(2)
	rec := telemetry.NewRecorder()
	dev.Prof = rec
	k := &workKernel{name: "work-test"}
	const grid, blockDim = 3, 8
	dev.LaunchKernel(context.Background(), grid, blockDim, k)
	ls := rec.Launches()
	if len(ls) != 1 {
		t.Fatalf("%d launch records, want 1", len(ls))
	}
	got := ls[0].Work
	want := int64(grid * blockDim)
	if got.EdgeVisits != want || got.ActiveVertices != want {
		t.Errorf("work = %+v, want edgeVisits=activeVertices=%d", got, want)
	}
	// Reuse across launches reports per-launch deltas, not running totals.
	dev.LaunchKernel(context.Background(), grid, blockDim, k)
	if got := rec.Launches()[1].Work; got.EdgeVisits != want {
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
	// A Cross-Check revert flips a label back, so the flips family counts
	// reverts beside moves: 6 blocks of 1 move and 2 reverts each.
	flipsBefore := mWorkLabelFlips.With("export-test").Value()
	dev.LaunchKernel(context.Background(), 6, 7, &workKernel{name: "export-test", moves: 1, reverts: 2})
	if got := mWorkLabelFlips.With("export-test").Value() - flipsBefore; got != 18 {
		t.Errorf("nulpa_work_label_flips_total{export-test} grew by %d, want 18 (Moves 6 + Reverts 12)", got)
	}
	before = mWorkEdgeVisits.With("export-test").Value()
	// An unprofiled launch counts nothing.
	dev.Prof = nil
	dev.LaunchKernel(context.Background(), 6, 7, &workKernel{name: "export-test"})
	if got := mWorkEdgeVisits.With("export-test").Value() - before; got != 0 {
		t.Errorf("unprofiled launch leaked %d edge visits", got)
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
