package hashtable

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"nulpa/internal/simt"
)

// Micro-benchmarks isolating the hashtable from the LPA loop: the probing
// strategies of Figure 3 and the value widths of Figure 5 under a realistic
// key distribution (a skewed label multiset over a degree-256 vertex).

func benchKeys(deg int) []uint32 {
	rng := rand.New(rand.NewSource(1))
	keys := make([]uint32, deg)
	for i := range keys {
		// Zipf-ish label distribution: communities already formed.
		keys[i] = uint32(rng.Intn(1+i/4) * 977)
	}
	return keys
}

func BenchmarkAccumulateProbing(b *testing.B) {
	const deg = 256
	keys := benchKeys(deg)
	for _, pr := range allProbings {
		b.Run(pr.String(), func(b *testing.B) {
			a := NewArena(Float32, 2*deg)
			tb := a.TableFor(0, deg, pr)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tb.Clear(0, 1)
				for _, k := range keys {
					tb.Accumulate(k, 1, false, nil)
				}
			}
		})
	}
}

func BenchmarkAccumulateShared(b *testing.B) {
	const deg = 256
	keys := benchKeys(deg)
	for _, shared := range []bool{false, true} {
		b.Run(fmt.Sprintf("shared=%v", shared), func(b *testing.B) {
			a := NewArena(Float32, 2*deg)
			tb := a.TableFor(0, deg, QuadraticDouble)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tb.Clear(0, 1)
				for _, k := range keys {
					tb.Accumulate(k, 1, shared, nil)
				}
			}
		})
	}
}

func BenchmarkAccumulateValueKind(b *testing.B) {
	const deg = 256
	keys := benchKeys(deg)
	for _, kind := range allKinds {
		b.Run(kind.String(), func(b *testing.B) {
			a := NewArena(kind, 2*deg)
			tb := a.TableFor(0, deg, QuadraticDouble)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tb.Clear(0, 1)
				for _, k := range keys {
					tb.Accumulate(k, 1, false, nil)
				}
			}
		})
	}
}

func BenchmarkMaxKey(b *testing.B) {
	const deg = 256
	a := NewArena(Float32, 2*deg)
	tb := a.TableFor(0, deg, QuadraticDouble)
	for _, k := range benchKeys(deg) {
		tb.Accumulate(k, 1, false, nil)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, ok := tb.MaxKey(); !ok {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkPick times one vertex's whole thread-kernel step over the same
// degree-256 neighbourhood: the fused Pick against the Clear, Accumulate
// and MaxKey sequence it computes.
func BenchmarkPick(b *testing.B) {
	const deg = 256
	labels := benchKeys(deg)
	ts, ws := make([]uint32, deg), make([]float32, deg)
	for i := range ts {
		ts[i], ws[i] = uint32(i), 1
	}
	const self = deg // not a neighbour: no self loop
	for _, kind := range allKinds {
		tb := NewArena(kind, 2*deg).TableFor(0, deg, QuadraticDouble)
		b.Run("fused/"+kind.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if tb.Pick(self, ts, ws, labels, nil) == EmptyKey {
					b.Fatal("empty table")
				}
			}
		})
		b.Run("stepwise/"+kind.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tb.Clear(0, 1)
				for x, j := range ts {
					tb.Accumulate(labels[j], float64(ws[x]), false, nil)
				}
				if _, _, ok := tb.MaxKey(); !ok {
					b.Fatal("empty table")
				}
			}
		})
	}
}

func BenchmarkCoalescedAccumulate(b *testing.B) {
	const deg = 256
	keys := benchKeys(deg)
	a := NewCoalescedArena(Float32, 2*deg)
	tb := a.TableFor(0, deg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tb.Clear(0, 1)
		for _, k := range keys {
			tb.Accumulate(k, 1, false, nil)
		}
	}
}

// BenchmarkAccumulateCounted is the contention guard for the lane path:
// parallel goroutines — stand-ins for SMs — fill their own tables with
// counting off and on. Each counting goroutine owns a padded Tally and
// folds it once at the end, as a launch does, so the two cases should sit
// within noise of each other at any -cpu. A shared atomic reintroduced on
// the accumulate path shows up as a ns/op gap that widens with -cpu.
func BenchmarkAccumulateCounted(b *testing.B) {
	const deg = 256
	keys := benchKeys(deg)
	for _, counted := range []bool{false, true} {
		b.Run(fmt.Sprintf("counted=%v", counted), func(b *testing.B) {
			var accumulates atomic.Int64
			b.RunParallel(func(pb *testing.PB) {
				// Padding keeps neighbouring goroutines' tallies off each
				// other's cache lines, like the per-SM tallies in a kernel.
				tl := new(struct {
					Tally
					_ [simt.CacheLine]byte
				})
				tb := NewArena(Float32, 2*deg).TableFor(0, deg, QuadraticDouble)
				var counter *Tally
				if counted {
					counter = &tl.Tally
				}
				for pb.Next() {
					tb.Clear(0, 1)
					for _, k := range keys {
						tb.Accumulate(k, 1, false, counter)
					}
				}
				accumulates.Add(tl.Fold().Accumulates)
			})
			if counted && accumulates.Load() == 0 {
				b.Fatal("counted run tallied nothing")
			}
		})
	}
}
