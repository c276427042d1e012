package hashtable

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCoalescedSimple(t *testing.T) {
	for _, kind := range allKinds {
		a := NewCoalescedArena(kind, 64)
		tb := a.TableFor(0, 8)
		tb.Clear(0, 1)
		tb.Accumulate(3, 1, nil)
		tb.Accumulate(5, 2, nil)
		tb.Accumulate(3, 2, nil)
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
	if tb.Accumulate(1, 1, tl) {
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
		if !tb.Accumulate(uint32(15*i), float64(i+1), tl) {
			t.Fatalf("failed to insert key %d", 15*i)
		}
	}
	for i := 0; i < 4; i++ {
		found := false
		for s := 0; s < int(tb.p1); s++ {
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
			if !tb.Accumulate(k, w, nil) {
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
		t.Error(err)
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
		tb.Accumulate(uint32(15*i), 1, nil) // force chains
	}
	tb.Clear(0, 1)
	if _, _, ok := tb.MaxKey(); ok {
		t.Error("table not empty after clear")
	}
	// Reuse after clear must work (next pointers reset).
	if !tb.Accumulate(2, 3, nil) {
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
	tb.Accumulate(3, 4, nil)
	tb.Accumulate(7, 2, nil)
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
