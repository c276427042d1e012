package hashtable

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

func TestCoalescedSimple(t *testing.T) {
	for _, kind := range allKinds {
		a := NewCoalescedArena(kind, 64)
		tb := a.TableFor(0, 8)
		tb.Clear(0, 1)
		tb.Accumulate(3, 1, false, nil)
		tb.Accumulate(5, 2, false, nil)
		tb.Accumulate(3, 2, false, nil)
		k, w, ok := tb.MaxKey()
		if !ok || k != 3 || w != 3 {
			t.Errorf("%v: MaxKey = (%d,%g,%v), want (3,3,true)", kind, k, w, ok)
		}
	}
}

func TestCoalescedZeroCapacity(t *testing.T) {
	a := NewCoalescedArena(Float32, 8)
	tl := &Tally{}
	tb := a.TableFor(0, 0)
	if tb.Accumulate(1, 1, false, tl) {
		t.Error("zero-capacity accumulate succeeded")
	}
	if tl.Failures != 1 {
		t.Error("failure not counted")
	}
}

func TestCoalescedChainCollisions(t *testing.T) {
	a := NewCoalescedArena(Float64, 64)
	tl := &Tally{}
	tb := a.TableFor(0, 8) // capacity 15
	tb.Clear(0, 1)
	// Keys 0, 15, 30, 45 all hash to slot 0 and must chain.
	for i := 0; i < 4; i++ {
		if !tb.Accumulate(uint32(15*i), float64(i+1), false, tl) {
			t.Fatalf("failed to insert key %d", 15*i)
		}
	}
	for i := 0; i < 4; i++ {
		found := false
		for s := 0; s < tb.Capacity(); s++ {
			if tb.Key(s) == uint32(15*i) && tb.Value(s) == float64(i+1) {
				found = true
			}
		}
		if !found {
			t.Errorf("key %d lost or wrong value", 15*i)
		}
	}
	if tl.Collisions == 0 {
		t.Error("chained inserts counted no collisions")
	}
}

func TestCoalescedMatchesMapOracle(t *testing.T) {
	for _, shared := range []bool{false, true} {
		shared := shared
		f := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			deg := 1 + rng.Intn(40)
			a := NewCoalescedArena(Float64, 2*64)
			tb := a.TableFor(0, 64)
			tb.Clear(0, 1)
			oracle := map[uint32]float64{}
			for i := 0; i < deg; i++ {
				k := uint32(rng.Intn(16))
				w := float64(1 + rng.Intn(4))
				if !tb.Accumulate(k, w, shared, nil) {
					return false
				}
				oracle[k] += w
			}
			var bestK uint32 = EmptyKey
			bestW := math.Inf(-1)
			for k, w := range oracle {
				if w > bestW || (w == bestW && k < bestK) {
					bestK, bestW = k, w
				}
			}
			gotK, gotW, ok := tb.MaxKey()
			return ok && gotK == bestK && gotW == bestW
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
			t.Errorf("shared=%v: %v", shared, err)
		}
	}
}

// TestCoalescedSharedConcurrent hammers one table from many goroutines —
// stronger than the engine exercises it (lanes run one at a time per block),
// but the shared path must still be linearizable.
func TestCoalescedSharedConcurrent(t *testing.T) {
	a := NewCoalescedArena(Float64, 2*256)
	tb := a.TableFor(0, 256)
	tb.Clear(0, 1)
	var wg sync.WaitGroup
	workers := 8
	perWorker := 500
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < perWorker; i++ {
				k := uint32(rng.Intn(20))
				if !tb.Accumulate(k, 1, true, nil) {
					t.Errorf("worker %d: accumulate failed", w)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	var total float64
	seen := map[uint32]bool{}
	for s := 0; s < tb.Capacity(); s++ {
		if k := tb.Key(s); k != EmptyKey {
			if seen[k] {
				t.Errorf("key %d appears in two slots", k)
			}
			seen[k] = true
			total += tb.Value(s)
		}
	}
	if total != float64(workers*perWorker) {
		t.Errorf("total weight = %g, want %d", total, workers*perWorker)
	}
}

// TestOpenAddressingSharedConcurrent does the same for the open-addressing
// table.
func TestOpenAddressingSharedConcurrent(t *testing.T) {
	for _, pr := range allProbings {
		a := NewArena(Float64, 2*256)
		tb := a.TableFor(0, 256, pr)
		tb.Clear(0, 1)
		var wg sync.WaitGroup
		workers := 8
		perWorker := 500
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(w)))
				for i := 0; i < perWorker; i++ {
					k := uint32(rng.Intn(20))
					if !tb.Accumulate(k, 1, true, nil) {
						t.Errorf("worker %d: accumulate failed", w)
						return
					}
				}
			}(w)
		}
		wg.Wait()
		var total float64
		seen := map[uint32]bool{}
		for s := 0; s < tb.Capacity(); s++ {
			if k := tb.Key(s); k != EmptyKey {
				if seen[k] {
					t.Errorf("probing=%v: key %d appears twice", pr, k)
				}
				seen[k] = true
				total += tb.Value(s)
			}
		}
		if total != float64(workers*perWorker) {
			t.Errorf("probing=%v: total = %g, want %d", pr, total, workers*perWorker)
		}
	}
}

func TestCoalescedArenaBytes(t *testing.T) {
	if b := CoalescedArenaBytes(Float32, 100); b != 1200 { // keys + next + v32
		t.Errorf("bytes = %d, want 1200", b)
	}
	a := NewCoalescedArena(Float32, 100)
	if got := int64(len(a.Keys))*4 + int64(len(a.Next))*4 + int64(len(a.V32))*4; got != CoalescedArenaBytes(Float32, 100) {
		t.Errorf("coalesced arena holds %d bytes, estimate %d", got, CoalescedArenaBytes(Float32, 100))
	}
	if CoalescedArenaBytes(Float32, 100) <= ArenaBytes(Float32, 100) {
		t.Error("coalesced arena should cost more memory than open addressing")
	}
}

func TestCoalescedClear(t *testing.T) {
	a := NewCoalescedArena(Float32, 64)
	tb := a.TableFor(0, 8)
	for i := 0; i < 10; i++ {
		tb.Accumulate(uint32(15*i), 1, false, nil) // force chains
	}
	tb.Clear(0, 1)
	if _, _, ok := tb.MaxKey(); ok {
		t.Error("table not empty after clear")
	}
	// Reuse after clear must work (next pointers reset).
	if !tb.Accumulate(2, 3, false, nil) {
		t.Fatal("accumulate after clear failed")
	}
	if k, w, _ := tb.MaxKey(); k != 2 || w != 3 {
		t.Errorf("after clear: (%d,%g)", k, w)
	}
}

func TestCoalescedMaxKeyStrided(t *testing.T) {
	a := NewCoalescedArena(Float32, 64)
	tb := a.TableFor(0, 8)
	tb.Clear(0, 1)
	tb.Accumulate(3, 4, false, nil)
	tb.Accumulate(7, 2, false, nil)
	var bestK uint32 = EmptyKey
	bestW := -1.0
	found := false
	for lane := 0; lane < 3; lane++ {
		k, w, ok := tb.MaxKeyStrided(lane, 3)
		if ok && (!found || w > bestW) {
			bestK, bestW, found = k, w, true
		}
	}
	if !found || bestK != 3 || bestW != 4 {
		t.Errorf("strided max = (%d,%g,%v)", bestK, bestW, found)
	}
}

// TestCoalescedSharedCollidingChains drives the shared chain-extension and
// claim-free paths: concurrent writers inserting distinct keys that all
// share one home bucket.
func TestCoalescedSharedCollidingChains(t *testing.T) {
	a := NewCoalescedArena(Float64, 2*64)
	tb := a.TableFor(0, 64) // capacity 127
	tb.Clear(0, 1)
	var wg sync.WaitGroup
	workers, keys := 8, 12
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < keys; i++ {
				k := uint32(9 + 127*i) // all hash to slot 9
				if !tb.Accumulate(k, 1, true, nil) {
					t.Errorf("worker %d: accumulate(%d) failed", w, k)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	// Every key present exactly once with the full total.
	seen := map[uint32]float64{}
	for s := 0; s < tb.Capacity(); s++ {
		if k := tb.Key(s); k != EmptyKey {
			if _, dup := seen[k]; dup {
				t.Fatalf("key %d in two slots", k)
			}
			seen[k] = tb.Value(s)
		}
	}
	if len(seen) != keys {
		t.Fatalf("found %d keys, want %d", len(seen), keys)
	}
	for k, v := range seen {
		if v != float64(workers) {
			t.Errorf("key %d total %g, want %d", k, v, workers)
		}
	}
}
