package hashtable

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// collidingStream returns n accumulates of keys drawn from keys, with
// repeats and fractional weights, so float sums depend on the order of the
// adds the way the ν-LPA kernels' do.
func collidingStream(rng *rand.Rand, keys []uint32, n int) (ks []uint32, ws []float64) {
	for i := 0; i < n; i++ {
		ks = append(ks, keys[rng.Intn(len(keys))])
		ws = append(ws, 0.1+float64(rng.Intn(7))/3)
	}
	return ks, ws
}

// homeKeys returns count keys that all hash to home slot h of a table of
// capacity p1.
func homeKeys(h, p1 uint32, count int) []uint32 {
	keys := make([]uint32, count)
	for i := range keys {
		keys[i] = h + p1*uint32(i)
	}
	return keys
}

// TestSingleWriterPlainMatchesShared pins the invariant the block-per-vertex
// kernel's block driver relies on: with a single writer, the plain and the
// shared (atomic) Accumulate make the same decisions. Two identical tables
// take the same key stream, one per path, and after every call their keys,
// chain links, value bits and tallies must be identical. The streams
// collide on purpose: a small MaxRetries sends the open table into its
// linear fallback, and a shared home bucket makes the coalesced table
// extend chains through its free-slot scan.
func TestSingleWriterPlainMatchesShared(t *testing.T) {
	const deg = 24 // capacity 31
	p1 := CapacityFor(deg)
	for _, kind := range allKinds {
		for _, pr := range allProbings {
			for _, retries := range []int{DefaultMaxRetries, 2} {
				t.Run(fmt.Sprintf("open/%v/%v/retries%d", kind, pr, retries), func(t *testing.T) {
					rng := rand.New(rand.NewSource(int64(retries)))
					keys := append(homeKeys(3, p1, deg/2), homeKeys(17, p1, deg/2)...)
					ks, ws := collidingStream(rng, keys, 400)
					plain, shared := NewArena(kind, 2*deg), NewArena(kind, 2*deg)
					plain.MaxRetries, shared.MaxRetries = retries, retries
					tp, ts := plain.TableFor(0, deg, pr), shared.TableFor(0, deg, pr)
					var lp, ls Tally
					for i := range ks {
						op, os := tp.Accumulate(ks[i], ws[i], false, &lp), ts.Accumulate(ks[i], ws[i], true, &ls)
						if op != os || !slices.Equal(plain.Keys, shared.Keys) ||
							!slices.Equal(plain.V32, shared.V32) || !slices.Equal(plain.V64, shared.V64) || lp != ls {
							t.Fatalf("call %d (key %d): plain and shared tables diverge", i, ks[i])
						}
					}
					if retries == 2 && lp.Fallbacks == 0 {
						t.Error("no accumulate took the linear fallback: the stream is vacuous")
					}
					if lp.Collisions == 0 {
						t.Error("no accumulate collided: the stream is vacuous")
					}
				})
			}
		}
		t.Run(fmt.Sprintf("coalesced/%v", kind), func(t *testing.T) {
			rng := rand.New(rand.NewSource(1))
			keys := append(homeKeys(3, p1, deg/2), homeKeys(4, p1, deg/2)...)
			ks, ws := collidingStream(rng, keys, 400)
			plain, shared := NewCoalescedArena(kind, 2*deg), NewCoalescedArena(kind, 2*deg)
			tp, ts := plain.TableFor(0, deg), shared.TableFor(0, deg)
			var lp, ls Tally
			for i := range ks {
				op, os := tp.Accumulate(ks[i], ws[i], false, &lp), ts.Accumulate(ks[i], ws[i], true, &ls)
				if op != os || !slices.Equal(plain.Keys, shared.Keys) || !slices.Equal(plain.Next, shared.Next) ||
					!slices.Equal(plain.V32, shared.V32) || !slices.Equal(plain.V64, shared.V64) || lp != ls {
					t.Fatalf("call %d (key %d): plain and shared tables diverge", i, ks[i])
				}
			}
			links := 0
			for _, n := range plain.Next {
				if n != noNext {
					links++
				}
			}
			if links < deg/2 {
				t.Errorf("%d chain links: the stream did not extend chains", links)
			}
		})
	}
}
