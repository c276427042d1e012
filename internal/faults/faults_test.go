package faults

import (
	"testing"
	"time"

	"nulpa/internal/simt"
)

func TestParseSpecRoundTrip(t *testing.T) {
	spec, err := ParseSpec("kernel=0.01,stall=0.05,stallms=3,livelock=0.02,bitflip=0.1,seed=42")
	if err != nil {
		t.Fatal(err)
	}
	want := Spec{
		KernelFailRate: 0.01, StallRate: 0.05, Stall: 3 * time.Millisecond,
		LivelockRate: 0.02, BitFlipRate: 0.1, Seed: 42,
	}
	if spec != want {
		t.Fatalf("ParseSpec = %+v, want %+v", spec, want)
	}
	// String renders a spec ParseSpec reads back identically.
	back, err := ParseSpec(spec.String())
	if err != nil {
		t.Fatal(err)
	}
	if back != spec {
		t.Fatalf("round trip: %+v -> %q -> %+v", spec, spec.String(), back)
	}
}

func TestParseSpecErrors(t *testing.T) {
	for _, text := range []string{
		"kernel",          // not key=value
		"kernel=2",        // rate out of range
		"kernel=-0.1",     // negative rate
		"stallms=-1",      // negative duration
		"seed=x",          // non-integer seed
		"warp=0.5",        // unknown key
		"kernel=0.1,,x=1", // malformed field
	} {
		if _, err := ParseSpec(text); err == nil {
			t.Errorf("ParseSpec(%q): want error, got nil", text)
		}
	}
	// Empty spec parses to the inert default.
	spec, err := ParseSpec("  ")
	if err != nil {
		t.Fatal(err)
	}
	if spec.Enabled() {
		t.Errorf("empty spec is enabled: %+v", spec)
	}
}

func TestNewNilForDisabledSpec(t *testing.T) {
	if in := New(Spec{Seed: 9}); in != nil {
		t.Fatalf("New(disabled spec) = %v, want nil", in)
	}
	// A nil injector is inert on every method.
	var in *Injector
	if f := in.LaunchFault("k", 0); f.Kind != simt.FaultNone {
		t.Errorf("nil.LaunchFault = %+v", f)
	}
	if n := in.CorruptLabels(make([]uint32, 8)); n != 0 {
		t.Errorf("nil.CorruptLabels = %d", n)
	}
}

// TestLaunchFaultDeterministic pins the core property: the fault schedule is
// a pure function of (seed, ordinal), independent of consultation order or
// injector instance.
func TestLaunchFaultDeterministic(t *testing.T) {
	spec := Spec{KernelFailRate: 0.2, StallRate: 0.2, LivelockRate: 0.2, Seed: 7}
	a, b := New(spec), New(spec)
	for launch := int64(0); launch < 500; launch++ {
		fa := a.LaunchFault("k", launch)
		fb := b.LaunchFault("k", launch)
		if fa != fb {
			t.Fatalf("launch %d: %+v vs %+v", launch, fa, fb)
		}
	}
	// A different seed produces a different schedule.
	c := New(Spec{KernelFailRate: 0.2, StallRate: 0.2, LivelockRate: 0.2, Seed: 8})
	same := true
	for launch := int64(0); launch < 500; launch++ {
		if a.LaunchFault("k", launch) != c.LaunchFault("k", launch) {
			same = false
			break
		}
	}
	if same {
		t.Error("seeds 7 and 8 produced identical 500-launch schedules")
	}
}

func TestLaunchFaultRates(t *testing.T) {
	in := New(Spec{KernelFailRate: 0.5, Seed: 3})
	before := mInjected.With("kernel-fail").Value()
	fails := 0
	const trials = 2000
	for launch := int64(0); launch < trials; launch++ {
		if in.LaunchFault("k", launch).Kind == simt.FaultLaunchFail {
			fails++
		}
	}
	if fails < trials*4/10 || fails > trials*6/10 {
		t.Errorf("rate 0.5: %d/%d kernel fails", fails, trials)
	}
	if got := mInjected.With("kernel-fail").Value() - before; got != int64(fails) {
		t.Errorf("faults_injected_total{kernel-fail} grew by %d, want %d", got, fails)
	}
}

func TestCorruptLabelsFlipsBits(t *testing.T) {
	in := New(Spec{BitFlipRate: 0.9, Seed: 5})
	before := mInjected.With("bit-flip").Value()
	labels := make([]uint32, 64)
	orig := append([]uint32(nil), labels...)
	total := 0
	for call := 0; call < 50; call++ {
		total += in.CorruptLabels(labels)
	}
	if total == 0 {
		t.Fatal("bitflip=0.9 over 50 calls flipped nothing")
	}
	diff := 0
	for i := range labels {
		if labels[i] != orig[i] {
			diff++
		}
	}
	if diff == 0 {
		t.Error("flips reported but no label changed")
	}
	if got := mInjected.With("bit-flip").Value() - before; got != int64(total) {
		t.Errorf("faults_injected_total{bit-flip} grew by %d, want %d", got, total)
	}
}

// TestCorruptLabelsCapped guards the geometric-series cap: rate 1.0 must not
// loop forever.
func TestCorruptLabelsCapped(t *testing.T) {
	in := New(Spec{BitFlipRate: 1, Seed: 5})
	labels := make([]uint32, 8)
	if n := in.CorruptLabels(labels); n != 64 {
		t.Errorf("bitflip=1: %d flips, want the 64-trial cap", n)
	}
}

func TestDefaultsApplied(t *testing.T) {
	in := New(Spec{StallRate: 1, Seed: 1})
	if got := in.spec.Stall; got != 2*time.Millisecond {
		t.Errorf("default Stall = %v, want 2ms", got)
	}
	in2 := New(Spec{LivelockRate: 1, Seed: 1})
	if got := in2.spec.LivelockSpins; got != 1<<16 {
		t.Errorf("default LivelockSpins = %d, want %d", got, 1<<16)
	}
	f := in2.LaunchFault("k", 0)
	if f.Kind != simt.FaultLivelock || f.Spins != 1<<16 {
		t.Errorf("livelock fault = %+v", f)
	}
}
