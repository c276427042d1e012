package simt

import (
	"math"
	"sync/atomic"
)

// Global-memory atomic operations, mirroring the CUDA intrinsics used by the
// paper's kernels: atomicAdd, atomicCAS, atomicMin/Max, and atomic add on
// floating-point values implemented as a compare-and-swap loop over the bit
// pattern (the standard technique, and the reason value arrays in the
// hashtable are stored as bit-pattern integer slices).
//
// Every CAS retry loop counts its lost races into process-wide contention
// counters. The counters live on the retry path only — an uncontended
// operation costs nothing extra — so they stay on permanently; the metrics
// plane exports them as the simt_*_retries_total families.

var (
	casRetries      atomic.Int64 // AtomicCASUint32 lost races
	minMaxRetries   atomic.Int64 // AtomicMinUint32 / AtomicMaxUint32 lost races
	floatAddRetries atomic.Int64 // AtomicAddFloat{32,64}Bits lost races
)

// AtomicAddUint32 atomically adds delta to p[i] and returns the new value.
func AtomicAddUint32(p []uint32, i int, delta uint32) uint32 {
	return atomic.AddUint32(&p[i], delta)
}

// AtomicCASUint32 performs compare-and-swap on p[i]: if p[i] == old it
// stores new and returns old; otherwise it returns the value found. This is
// CUDA atomicCAS semantics (returns the value read), unlike Go's boolean CAS.
func AtomicCASUint32(p []uint32, i int, old, new uint32) uint32 {
	for {
		cur := atomic.LoadUint32(&p[i])
		if cur != old {
			return cur
		}
		if atomic.CompareAndSwapUint32(&p[i], old, new) {
			return old
		}
		// Lost a race: re-read and re-decide.
		casRetries.Add(1)
	}
}

// AtomicLoadUint32 atomically loads p[i].
func AtomicLoadUint32(p []uint32, i int) uint32 { return atomic.LoadUint32(&p[i]) }

// AtomicStoreUint32 atomically stores v into p[i].
func AtomicStoreUint32(p []uint32, i int, v uint32) { atomic.StoreUint32(&p[i], v) }

// AtomicMinUint32 atomically stores min(p[i], v) into p[i] and returns the
// previous value.
func AtomicMinUint32(p []uint32, i int, v uint32) uint32 {
	for {
		cur := atomic.LoadUint32(&p[i])
		if v >= cur {
			return cur
		}
		if atomic.CompareAndSwapUint32(&p[i], cur, v) {
			return cur
		}
		minMaxRetries.Add(1)
	}
}

// AtomicMaxUint32 atomically stores max(p[i], v) into p[i] and returns the
// previous value.
func AtomicMaxUint32(p []uint32, i int, v uint32) uint32 {
	for {
		cur := atomic.LoadUint32(&p[i])
		if v <= cur {
			return cur
		}
		if atomic.CompareAndSwapUint32(&p[i], cur, v) {
			return cur
		}
		minMaxRetries.Add(1)
	}
}

// AtomicAddFloat32Bits atomically adds delta to the float32 whose bit
// pattern is stored in bits[i], returning the new value. This is CUDA's
// atomicAdd(float*) realized as a CAS loop.
func AtomicAddFloat32Bits(bits []uint32, i int, delta float32) float32 {
	for {
		old := atomic.LoadUint32(&bits[i])
		newF := math.Float32frombits(old) + delta
		if atomic.CompareAndSwapUint32(&bits[i], old, math.Float32bits(newF)) {
			return newF
		}
		floatAddRetries.Add(1)
	}
}

// AtomicAddFloat64Bits atomically adds delta to the float64 whose bit
// pattern is stored in bits[i], returning the new value.
func AtomicAddFloat64Bits(bits []uint64, i int, delta float64) float64 {
	for {
		old := atomic.LoadUint64(&bits[i])
		newF := math.Float64frombits(old) + delta
		if atomic.CompareAndSwapUint64(&bits[i], old, math.Float64bits(newF)) {
			return newF
		}
		floatAddRetries.Add(1)
	}
}

// SharedAtomicAddUint64 atomically adds delta to the block-shared word
// s[i]. Shared memory is private to a block, but warps of the same block
// interleave at phase granularity, so atomicity still matters when lanes of
// different warps target the same word within one phase... it does not in
// this engine (lanes run one at a time), but kernels written against it stay
// correct if the engine ever interleaves lanes, and it documents intent.
func SharedAtomicAddUint64(s []uint64, i int, delta uint64) uint64 {
	return atomic.AddUint64(&s[i], delta)
}
