package simt

import (
	"testing"
	"time"

	"nulpa/internal/metrics"
)

// workKernel counts one edge visit per lane into its SM's shard and reports
// through TakeWork — the minimal WorkReportingKernel. folds counts the
// FoldTallies calls, which must happen once per launch.
type workKernel struct {
	work  WorkAccum
	folds int
}

func (k *workKernel) NumPhases() int { return 1 }

func (k *workKernel) Phase(p int, t *Thread) {
	w := k.work.Shard(t.SM)
	w.EdgeVisits++
	w.ActiveVertices++
}

func (k *workKernel) GrowTallies(sms int) { k.work.Grow(sms) }
func (k *workKernel) FoldTallies()        { k.folds++ }

func (k *workKernel) TakeWork() (edgeVisits, labelFlips, hashProbes, hashCollisions, activeVertices int64) {
	ev, lf, hp, hc, av := k.work.Take()
	return ev, lf, hp, hc, av
}

// workCapture records KernelWork callbacks alongside the standard Profiler
// hooks.
type workCapture struct {
	begins int
	work   map[int][5]int64
}

func (w *workCapture) KernelBegin(kernel string, grid, blockDim, sms int) int {
	id := w.begins
	w.begins++
	return id
}

func (w *workCapture) SMSpan(launch, sm int, start, end time.Time, blocks, phases, lanes int64) {}
func (w *workCapture) KernelEnd(launch int, start, end time.Time)                               {}

func (w *workCapture) KernelWork(launch int, edgeVisits, labelFlips, hashProbes, hashCollisions, activeVertices int64) {
	if w.work == nil {
		w.work = map[int][5]int64{}
	}
	w.work[launch] = [5]int64{edgeVisits, labelFlips, hashProbes, hashCollisions, activeVertices}
}

// TestWorkFlowsToProfiler pins the device seam: a WorkReportingKernel's
// counters reach the Profiler exactly once per launch, with the values the
// lanes accumulated.
func TestWorkFlowsToProfiler(t *testing.T) {
	dev := NewDevice(2)
	cap := &workCapture{}
	dev.Prof = cap
	k := &workKernel{}
	const grid, blockDim = 3, 8
	dev.Launch(grid, blockDim, k)
	if len(cap.work) != 1 {
		t.Fatalf("KernelWork called %d times, want 1", len(cap.work))
	}
	got := cap.work[0]
	want := int64(grid * blockDim)
	if got[0] != want || got[4] != want {
		t.Errorf("work = %v, want edgeVisits=activeVertices=%d", got, want)
	}
	// Reuse across launches reports per-launch deltas, not running totals.
	dev.Launch(grid, blockDim, k)
	if got := cap.work[1]; got[0] != want {
		t.Errorf("second launch edgeVisits = %d, want %d (drain must reset)", got[0], want)
	}
	if k.folds != 2 {
		t.Errorf("FoldTallies called %d times over 2 launches, want 2", k.folds)
	}
}

// TestWorkAccumShardsSum checks the sharded accumulator: shards written
// independently sum in Take, Take drains, and Grow keeps counts already
// tallied.
func TestWorkAccumShardsSum(t *testing.T) {
	var w WorkAccum
	w.Grow(2)
	w.Shard(0).EdgeVisits = 3
	w.Shard(1).EdgeVisits = 4
	w.Shard(1).LabelFlips = 1
	w.Grow(4)
	w.Shard(3).ActiveVertices = 5
	w.Grow(1) // never shrinks
	ev, lf, hp, hc, av := w.Take()
	if ev != 7 || lf != 1 || hp != 0 || hc != 0 || av != 5 {
		t.Errorf("Take = %d %d %d %d %d, want 7 1 0 0 5", ev, lf, hp, hc, av)
	}
	if ev, lf, hp, hc, av := w.Take(); ev|lf|hp|hc|av != 0 {
		t.Errorf("second Take = %d %d %d %d %d, want zeros", ev, lf, hp, hc, av)
	}
	if a := testing.AllocsPerRun(100, func() { w.Grow(4); w.Take() }); a != 0 {
		t.Errorf("Grow to a reached size + Take allocate %v, want 0", a)
	}
}

// TestMultiProfilerForwardsWork checks id translation: each child receives
// the work under its own launch id.
func TestMultiProfilerForwardsWork(t *testing.T) {
	a, b := &workCapture{}, &workCapture{}
	// Skew a's id space so translation bugs show.
	a.KernelBegin("warmup", 1, 1, 1)
	mp := MultiProfiler(a, b).(*multiProfiler)
	id := mp.KernelBegin("k", 1, 1, 1)
	mp.KernelWork(id, 10, 2, 0, 0, 5)
	if got := a.work[1]; got[0] != 10 {
		t.Errorf("child a work under id 1 = %v, want edgeVisits 10", got)
	}
	if got := b.work[0]; got[0] != 10 {
		t.Errorf("child b work under id 0 = %v, want edgeVisits 10", got)
	}
	mp.KernelEnd(id, time.Now(), time.Now())
	// Work for an evicted/ended launch is dropped, not panicking.
	mp.KernelWork(id, 1, 1, 1, 1, 1)
}

// TestMetricsProfilerWorkExport checks the nulpa_work_* families receive
// per-kernel sums.
func TestMetricsProfilerWorkExport(t *testing.T) {
	p := NewMetricsProfiler()
	before := mWorkEdgeVisits.With("export-test").Value()
	id := p.KernelBegin("export-test", 1, 1, 1)
	p.KernelWork(id, 42, 7, 3, 1, 9)
	p.KernelEnd(id, time.Now(), time.Now())
	if got := mWorkEdgeVisits.With("export-test").Value() - before; got != 42 {
		t.Errorf("nulpa_work_edge_visits_total{export-test} grew by %d, want 42", got)
	}
	// After KernelEnd the launch is forgotten; late work is dropped silently.
	p.KernelWork(id, 100, 0, 0, 0, 0)
	if got := mWorkEdgeVisits.With("export-test").Value() - before; got != 42 {
		t.Errorf("late KernelWork leaked %d extra edge visits", got-42)
	}
}

// TestLaunchMapEviction is the retention guardrail for long-lived serve
// sessions: 10k launches — a third of them abandoned between Begin and End,
// the failure mode of a panicked kernel — must leave both profilers'
// in-flight maps at steady state, bounded by maxPendingLaunches.
func TestLaunchMapEviction(t *testing.T) {
	p := NewMetricsProfiler()
	mp := MultiProfiler(p, &workCapture{}).(*multiProfiler)
	now := time.Now()
	for i := 0; i < 10_000; i++ {
		id := mp.KernelBegin("evict-test", 1, 1, 1)
		if i%3 == 0 {
			continue // abandoned: no SMSpan, no KernelEnd
		}
		mp.SMSpan(id, 0, now, now, 1, 1, 1)
		mp.KernelWork(id, 1, 0, 0, 0, 1)
		mp.KernelEnd(id, now, now)
	}
	p.mu.Lock()
	nLaunches := len(p.launches)
	p.mu.Unlock()
	if nLaunches > maxPendingLaunches {
		t.Errorf("MetricsProfiler retains %d launches after 10k, cap is %d", nLaunches, maxPendingLaunches)
	}
	mp.mu.Lock()
	nIDs := len(mp.ids)
	mp.mu.Unlock()
	if nIDs > maxPendingLaunches {
		t.Errorf("multiProfiler retains %d ids after 10k, cap is %d", nIDs, maxPendingLaunches)
	}
	// Events against evicted launches are no-ops, not panics.
	mp.SMSpan(0, 0, now, now, 1, 1, 1)
	mp.KernelWork(0, 1, 1, 1, 1, 1)
	mp.KernelEnd(0, now, now)
}

// TestSnapshotCoversWorkFamilies ties the metric families to the programmatic
// snapshot flight bundles embed.
func TestSnapshotCoversWorkFamilies(t *testing.T) {
	p := NewMetricsProfiler()
	id := p.KernelBegin("snap-test", 1, 1, 1)
	p.KernelWork(id, 5, 0, 0, 0, 2)
	p.KernelEnd(id, time.Now(), time.Now())
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
