// Package faults is the deterministic fault-injection layer of the ν-LPA
// system: a seeded injector that produces the failure modes a real GPU
// deployment sees — rejected kernel launches, stalled SMs, atomic-CAS
// livelock, and transient bit-flips in device-resident label arrays — on a
// schedule that is a pure function of the seed and the injection site. Two
// runs with the same spec observe the same faults at the same launches,
// which is what makes chaos tests reproducible and recovery bugs bisectable.
//
// The injector plugs into the simt device through the simt.FaultInjector
// seam (launch-level faults) and into the nulpa simt backend directly
// (label-array corruption between launches, where the backend can checkpoint
// and validate). Determinism comes from counter-hashing, not a shared
// rand.Rand: every decision hashes (seed, site-kind, site-ordinal) with
// SplitMix64, so concurrent consultation never perturbs the schedule.
package faults

import (
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"nulpa/internal/metrics"
	"nulpa/internal/simt"
)

// Spec configures an Injector. The zero value injects nothing. Rates are
// per-decision probabilities in [0, 1]: KernelFailRate, StallRate, and
// LivelockRate are evaluated once per kernel launch (in that priority
// order), BitFlipRate once per CorruptLabels call (one geometric trial per
// flip, so a rate of 1 would flip forever and is capped).
type Spec struct {
	// KernelFailRate is the probability a kernel launch is rejected.
	KernelFailRate float64
	// StallRate is the probability one SM of a launch stalls for Stall.
	StallRate float64
	// Stall is the injected per-SM delay (default 2ms).
	Stall time.Duration
	// LivelockRate is the probability a launch livelocks on atomic
	// contention and is killed by the watchdog.
	LivelockRate float64
	// LivelockSpins is the synthetic CAS-retry count charged per livelock
	// (default 65536) — visible in the contention counters and /metrics.
	LivelockSpins int64
	// BitFlipRate is the probability that a CorruptLabels call flips at
	// least one bit of the label array (each further flip is another trial).
	BitFlipRate float64
	// Seed fixes the fault schedule.
	Seed int64
}

// Enabled reports whether the spec injects anything at all.
func (s Spec) Enabled() bool {
	return s.KernelFailRate > 0 || s.StallRate > 0 || s.LivelockRate > 0 || s.BitFlipRate > 0
}

func (s Spec) withDefaults() Spec {
	if s.Stall <= 0 {
		s.Stall = 2 * time.Millisecond
	}
	if s.LivelockSpins <= 0 {
		s.LivelockSpins = 1 << 16
	}
	return s
}

// String renders the spec in ParseSpec's syntax.
func (s Spec) String() string {
	var parts []string
	add := func(k string, v float64) {
		if v > 0 {
			parts = append(parts, fmt.Sprintf("%s=%g", k, v))
		}
	}
	add("kernel", s.KernelFailRate)
	add("stall", s.StallRate)
	add("livelock", s.LivelockRate)
	add("bitflip", s.BitFlipRate)
	if s.Stall > 0 {
		parts = append(parts, fmt.Sprintf("stallms=%g", float64(s.Stall)/float64(time.Millisecond)))
	}
	parts = append(parts, fmt.Sprintf("seed=%d", s.Seed))
	return strings.Join(parts, ",")
}

// ParseSpec parses the -faults flag syntax: comma-separated key=value pairs
//
//	kernel=RATE    kernel-launch failure probability
//	stall=RATE     per-launch SM stall probability
//	stallms=MS     stall duration in milliseconds (default 2)
//	livelock=RATE  atomic-livelock probability
//	bitflip=RATE   label-array bit-flip probability (per iteration)
//	seed=N         fault-schedule seed (default 1)
//
// Example: "kernel=0.01,bitflip=0.01,seed=42".
func ParseSpec(text string) (Spec, error) {
	spec := Spec{Seed: 1}
	if strings.TrimSpace(text) == "" {
		return spec, nil
	}
	for _, field := range strings.Split(text, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(field), "=")
		if !ok {
			return spec, fmt.Errorf("faults: %q is not key=value", field)
		}
		f, ferr := strconv.ParseFloat(val, 64)
		switch key {
		case "kernel", "stall", "livelock", "bitflip":
			if ferr != nil || f < 0 || f > 1 {
				return spec, fmt.Errorf("faults: %s wants a rate in [0,1], got %q", key, val)
			}
			switch key {
			case "kernel":
				spec.KernelFailRate = f
			case "stall":
				spec.StallRate = f
			case "livelock":
				spec.LivelockRate = f
			case "bitflip":
				spec.BitFlipRate = f
			}
		case "stallms":
			if ferr != nil || f < 0 {
				return spec, fmt.Errorf("faults: stallms wants a non-negative number, got %q", val)
			}
			spec.Stall = time.Duration(f * float64(time.Millisecond))
		case "seed":
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return spec, fmt.Errorf("faults: seed wants an integer, got %q", val)
			}
			spec.Seed = n
		default:
			return spec, fmt.Errorf("faults: unknown key %q (want kernel, stall, stallms, livelock, bitflip, seed)", key)
		}
	}
	return spec, nil
}

// Injected-fault accounting, aggregated across every injector in the process
// so the metrics plane shows chaos activity next to the recovery counters.
var mInjected = metrics.NewCounterVec("faults_injected_total",
	"Faults injected, per kind.", "kind")

// Injector produces the fault schedule of one run. It is safe for concurrent
// use and implements simt.FaultInjector. Create a fresh Injector per run so
// the schedule restarts from the seed; the zero Injector (and a nil
// *Injector) injects nothing.
type Injector struct {
	spec Spec
	// corruptCalls orders CorruptLabels decisions; launch-level decisions
	// are ordered by the device's launch ordinal instead.
	corruptCalls atomic.Int64
}

// New returns an Injector for spec (defaults applied). nil is returned for a
// spec that injects nothing, which downstream code treats as "no injection"
// without a special case.
func New(spec Spec) *Injector {
	if !spec.Enabled() {
		return nil
	}
	return &Injector{spec: spec.withDefaults()}
}

// LaunchFault implements simt.FaultInjector: a deterministic verdict for the
// launch-th kernel launch of the device. At most one fault fires per launch;
// kernel failure outranks livelock outranks stall, so compound rates stay
// interpretable.
func (in *Injector) LaunchFault(kernel string, launch int64) simt.LaunchFault {
	if in == nil {
		return simt.LaunchFault{}
	}
	if in.roll(siteKernelFail, launch) < in.spec.KernelFailRate {
		mInjected.With("kernel-fail").Inc()
		return simt.LaunchFault{Kind: simt.FaultLaunchFail}
	}
	if in.roll(siteLivelock, launch) < in.spec.LivelockRate {
		mInjected.With("livelock").Inc()
		return simt.LaunchFault{Kind: simt.FaultLivelock, Spins: in.spec.LivelockSpins}
	}
	if in.roll(siteStall, launch) < in.spec.StallRate {
		mInjected.With("stall").Inc()
		return simt.LaunchFault{Kind: simt.FaultStall, Stall: in.spec.Stall}
	}
	return simt.LaunchFault{}
}

// CorruptLabels flips bits in labels — the transient global-memory fault a
// backend must detect (validation), absorb (a flip that lands on a valid
// label is indistinguishable from a community move and converges away), or
// roll back. The flip count is geometric in BitFlipRate; positions are
// deterministic in the seed and the call ordinal. Returns the number of bits
// flipped.
func (in *Injector) CorruptLabels(labels []uint32) int {
	if in == nil || in.spec.BitFlipRate <= 0 || len(labels) == 0 {
		return 0
	}
	call := in.corruptCalls.Add(1) - 1
	flips := 0
	// Cap the geometric series so bitflip=1 cannot spin forever.
	for trial := int64(0); trial < 64; trial++ {
		site := call<<6 | trial
		if in.roll(siteBitFlip, site) >= in.spec.BitFlipRate {
			break
		}
		h := in.hash(siteBitFlipPos, site)
		idx := int(h % uint64(len(labels)))
		bit := uint((h >> 32) % 32)
		atomicXorUint32(labels, idx, 1<<bit)
		flips++
	}
	if flips > 0 {
		mInjected.With("bit-flip").Add(int64(flips))
	}
	return flips
}

// Site kinds salt the hash so the per-launch decisions are independent.
const (
	siteKernelFail = iota + 1
	siteStall
	siteLivelock
	siteBitFlip
	siteBitFlipPos
)

// hash maps (seed, kind, ordinal) to 64 uniform bits with SplitMix64.
func (in *Injector) hash(kind int, ordinal int64) uint64 {
	x := uint64(in.spec.Seed)*0x9e3779b97f4a7c15 + uint64(kind)<<48 + uint64(ordinal)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// roll maps a site to a uniform float64 in [0, 1).
func (in *Injector) roll(kind int, ordinal int64) float64 {
	return float64(in.hash(kind, ordinal)>>11) / (1 << 53)
}

// atomicXorUint32 flips mask bits of p[i]. Atomic so corruption injected
// while any other goroutine reads the array stays a well-defined bit-flip
// rather than a data race.
func atomicXorUint32(p []uint32, i int, mask uint32) {
	for {
		old := atomic.LoadUint32(&p[i])
		if atomic.CompareAndSwapUint32(&p[i], old, old^mask) {
			return
		}
	}
}
