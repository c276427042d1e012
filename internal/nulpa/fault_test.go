package nulpa

import (
	"context"
	"errors"
	"testing"
	"time"

	"nulpa/internal/engine"
	"nulpa/internal/faults"
	"nulpa/internal/gen"
	"nulpa/internal/graph"
	"nulpa/internal/metrics"
	"nulpa/internal/quality"
	"nulpa/internal/simt"
	"nulpa/internal/telemetry"
)

// faultGraph is a planted partition small enough to chaos-test quickly but
// large enough to need several iterations.
func faultGraph() (*graph.CSR, []uint32) {
	return gen.Planted(gen.PlantedConfig{N: 400, Communities: 8, DegIn: 14, DegOut: 0.5, Seed: 3})
}

func TestSIMTRecoversFromFaults(t *testing.T) {
	g, truth := faultGraph()
	opt := DefaultOptions()
	opt.Faults = faults.New(faults.Spec{KernelFailRate: 0.1, BitFlipRate: 0.1, Seed: 11})
	opt.Device = simt.NewDevice(4)
	fails0, flips0 := injected("kernel-fail"), injected("bit-flip")
	res, err := Detect(g, opt)
	if err != nil {
		t.Fatalf("Detect under 10%% faults: %v", err)
	}
	fails, flips := injected("kernel-fail")-fails0, injected("bit-flip")-flips0
	checkLabelsValid(t, g, res.Labels)
	if res.Degraded {
		t.Log("run degraded to the direct configuration")
	}
	if nmi := quality.NMI(res.Labels, truth); nmi < 0.85 {
		t.Errorf("NMI under faults = %.3f, want >= 0.85", nmi)
	}
	if fails+flips == 0 {
		t.Error("fault injector fired nothing at 10% rates")
	}
	if fails > 0 && telemetry.Sum(res.Trace).Retries == 0 && !res.Degraded {
		t.Errorf("injector failed %v launches but the run recorded no retries and did not degrade", fails)
	}
}

// injected is the process's faults_injected_total reading for kind.
func injected(kind string) float64 {
	for _, mv := range metrics.Default().Snapshot() {
		if mv.Name == "faults_injected_total" && mv.Label == kind {
			return mv.Value
		}
	}
	return 0
}

// TestSIMTFallsBackWhenFaultsPersist drives the recovery ladder to its last
// rung: with every launch failing, the run can never complete an iteration
// and must degrade to the sequential direct configuration, keeping the
// faulted attempt's rollbacks — one per attempt at the first iteration.
func TestSIMTFallsBackWhenFaultsPersist(t *testing.T) {
	g, truth := faultGraph()
	opt := DefaultOptions()
	opt.Faults = faults.New(faults.Spec{KernelFailRate: 1, Seed: 1})
	opt.Device = simt.NewDevice(4)
	res, err := Detect(g, opt)
	if err != nil {
		t.Fatalf("Detect with permanent faults: %v (fallback should have saved it)", err)
	}
	if !res.Degraded {
		t.Fatal("Result.Degraded = false after a total simt failure")
	}
	if res.Rollbacks != 3 {
		t.Errorf("Rollbacks = %d, want 3 (maxAttempts attempts at iteration 0)", res.Rollbacks)
	}
	checkLabelsValid(t, g, res.Labels)
	if nmi := quality.NMI(res.Labels, truth); nmi < 0.85 {
		t.Errorf("degraded-run NMI = %.3f, want >= 0.85", nmi)
	}
}

// TestSIMTExhaustedBudgetReturnsErrFaulted checks the rung below the
// fallback: the device run itself gives up with errFaulted after maxAttempts
// failed attempts at iteration 0, carrying their rollbacks for the degraded
// result.
func TestSIMTExhaustedBudgetReturnsErrFaulted(t *testing.T) {
	g, _ := faultGraph()
	opt := DefaultOptions()
	opt.Faults = faults.New(faults.Spec{KernelFailRate: 1, Seed: 1})
	opt.Device = simt.NewDevice(4)
	res, err := detectSharded(g, opt)
	if !errors.Is(err, errFaulted) {
		t.Fatalf("err = %v, want errFaulted", err)
	}
	if res.Rollbacks != maxAttempts {
		t.Errorf("Rollbacks = %d, want %d", res.Rollbacks, maxAttempts)
	}
}

// TestSIMTRollbackCountsRetries pins the retry accounting: with a moderate
// kernel-fail rate and a fixed seed, the run survives and reports the
// retries/rollbacks it performed, and a second identical run reports the
// same labels (the fault schedule is deterministic).
func TestSIMTDeterministicUnderFaults(t *testing.T) {
	g, _ := faultGraph()
	run := func() *Result {
		opt := DefaultOptions()
		opt.Faults = faults.New(faults.Spec{KernelFailRate: 0.2, BitFlipRate: 0.2, Seed: 5})
		opt.Device = simt.NewDevice(1) // one SM: the simt schedule is serial
		res, err := Detect(g, opt)
		if err != nil {
			t.Fatalf("Detect: %v", err)
		}
		return res
	}
	a, b := run(), run()
	ra, rb := telemetry.Sum(a.Trace).Retries, telemetry.Sum(b.Trace).Retries
	if ra != rb || a.Rollbacks != b.Rollbacks {
		t.Errorf("recovery differs between identical runs: %d/%d vs %d/%d retries/rollbacks",
			ra, rb, a.Rollbacks, b.Rollbacks)
	}
	if a.Degraded != b.Degraded {
		t.Errorf("Degraded differs between identical runs")
	}
}

func TestSIMTCancellation(t *testing.T) {
	g, _ := faultGraph()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opt := DefaultOptions()
	opt.Context = ctx
	res, err := Detect(g, opt)
	if !errors.Is(err, engine.ErrCanceled) {
		t.Fatalf("err = %v, want engine.ErrCanceled", err)
	}
	if res != nil {
		t.Errorf("res = %+v, want nil", res)
	}
}

func TestSIMTDeadline(t *testing.T) {
	g, _ := faultGraph()
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	time.Sleep(time.Millisecond) // let the deadline expire before the run
	opt := DefaultOptions()
	opt.Context = ctx
	if _, err := Detect(g, opt); !errors.Is(err, engine.ErrDeadline) {
		t.Fatalf("err = %v, want engine.ErrDeadline", err)
	}
}

func TestDirectCancellation(t *testing.T) {
	g, _ := faultGraph()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opt := asDirect(DefaultOptions())
	opt.Context = ctx
	if _, err := Detect(g, opt); !errors.Is(err, engine.ErrCanceled) {
		t.Fatalf("err = %v, want engine.ErrCanceled", err)
	}
}

func TestLabelsValid(t *testing.T) {
	if !labelsValid([]uint32{0, 1, 2}, 3) {
		t.Error("valid labels rejected")
	}
	if labelsValid([]uint32{0, 3, 2}, 3) {
		t.Error("out-of-range label accepted")
	}
}
