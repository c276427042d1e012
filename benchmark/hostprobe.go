package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// The host probe. The VM the benchmark was defined on slows by up to 30%
// for minutes at a time as other tenants load the machine, which no number
// of reps averages out. An end-to-end run therefore times a fixed integer
// kernel on both CPUs before it sets anything up, and scales its times to
// a host on which that kernel takes probeRef seconds. On the defining host
// this halved the run-to-run spread of every time metric (README.md, "Host
// speed"). The probe runs before any of the program's code, so no change
// to the program can move it.
const (
	probeReps  = 10
	probeSteps = 16_000_000
	// probeRef is the probe's median time on the defining host.
	probeRef = 0.040
)

var probeSink atomic.Uint64

// probeOnce runs probeSteps xorshift steps on each of two goroutines and
// returns the wall time in seconds.
func probeOnce() float64 {
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(x uint64) {
			defer wg.Done()
			for i := 0; i < probeSteps; i++ {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
			}
			probeSink.Add(x)
		}(uint64(88172645463325252 + w))
	}
	wg.Wait()
	return time.Since(start).Seconds()
}

// probeHost returns the probe's median time over probeReps runs.
func probeHost() float64 {
	times := make([]float64, probeReps)
	for i := range times {
		times[i] = probeOnce()
	}
	return median(times)
}

// scaled converts a measured value to reference-host units by its unit:
// times are multiplied by factor (probeRef over the measured probe time)
// and rates per second divided by it; other units are not times.
func scaled(unit string, v, factor float64) float64 {
	switch unit {
	case "s":
		return v * factor
	case "1/s":
		return v / factor
	}
	return v
}
