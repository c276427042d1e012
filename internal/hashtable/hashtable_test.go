package hashtable

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

var allProbings = []Probing{Linear, Quadratic, Double, QuadraticDouble}
var allKinds = []ValueKind{Float32, Float64}

func TestNextPow2(t *testing.T) {
	cases := []struct{ in, want uint32 }{
		{0, 1}, {1, 2}, {2, 4}, {3, 4}, {4, 8}, {7, 8}, {8, 16}, {100, 128},
	}
	for _, c := range cases {
		if got := NextPow2(c.in); got != c.want {
			t.Errorf("NextPow2(%d) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestCapacityFitsWindowAndDegree(t *testing.T) {
	for d := 0; d <= 5000; d++ {
		p1 := CapacityFor(d)
		if d > 0 && int(p1) < d {
			t.Fatalf("degree %d: capacity %d < degree", d, p1)
		}
		if int64(p1) >= 2*int64(d)+1 && d > 0 {
			t.Fatalf("degree %d: capacity %d does not fit 2*degree window", d, p1)
		}
	}
}

func TestSecondaryModulusCoprime(t *testing.T) {
	a := NewArena(Float32, 1024)
	for d := 1; d < 300; d++ {
		tb := a.TableFor(0, d, QuadraticDouble)
		p1, p2 := uint32(tb.Capacity()), tb.SecondaryModulus()
		if p2 <= p1 {
			t.Fatalf("degree %d: p2=%d <= p1=%d", d, p2, p1)
		}
		if gcd(p1, p2) != 1 && p1 > 0 {
			t.Fatalf("degree %d: gcd(%d,%d) = %d", d, p1, p2, gcd(p1, p2))
		}
	}
}

func gcd(a, b uint32) uint32 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func TestProbingString(t *testing.T) {
	names := map[Probing]string{
		Linear: "linear", Quadratic: "quadratic", Double: "double",
		QuadraticDouble: "quadratic-double", Probing(99): "probing(99)",
	}
	for p, want := range names {
		if p.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(p), p.String(), want)
		}
	}
	if Float32.String() != "float" || Float64.String() != "double" {
		t.Error("ValueKind names wrong")
	}
}

func TestAccumulateAndMaxSimple(t *testing.T) {
	for _, kind := range allKinds {
		for _, pr := range allProbings {
			a := NewArena(kind, 64)
			tb := a.TableFor(0, 8, pr) // capacity 15
			tb.Clear(0, 1)
			tb.Accumulate(3, 1, nil)
			tb.Accumulate(5, 2, nil)
			tb.Accumulate(3, 2, nil) // 3 -> 3.0 total
			k, w, ok := tb.MaxKey()
			if !ok || k != 3 || w != 3 {
				t.Errorf("%v/%v: MaxKey = (%d,%g,%v), want (3,3,true)", kind, pr, k, w, ok)
			}
		}
	}
}

func TestMaxKeyEmpty(t *testing.T) {
	a := NewArena(Float32, 64)
	tb := a.TableFor(0, 8, QuadraticDouble)
	if _, _, ok := tb.MaxKey(); ok {
		t.Error("MaxKey found a key in an empty table")
	}
}

func TestZeroCapacityTable(t *testing.T) {
	a := NewArena(Float32, 8)
	tb := a.TableFor(0, 0, QuadraticDouble)
	if tb.Capacity() != 0 {
		t.Fatalf("capacity = %d", tb.Capacity())
	}
	if tb.Accumulate(1, 1, nil) {
		t.Error("Accumulate succeeded on zero-capacity table")
	}
}

func TestClearStrided(t *testing.T) {
	a := NewArena(Float32, 64)
	tb := a.TableFor(0, 8, Linear)
	tb.Accumulate(1, 5, nil)
	tb.Accumulate(2, 5, nil)
	// Strided clear as four lanes would do it.
	for lane := 0; lane < 4; lane++ {
		tb.Clear(lane, 4)
	}
	if _, _, ok := tb.MaxKey(); ok {
		t.Error("table not empty after strided clear")
	}
}

// TestAccumulateMatchesMapOracle is the central property test: for random
// multisets of (key, weight) pairs, accumulate-then-max must agree with a
// map-based reference under every probing strategy and value kind.
func TestAccumulateMatchesMapOracle(t *testing.T) {
	for _, kind := range allKinds {
		for _, pr := range allProbings {
			f := func(seed int64) bool {
				rng := rand.New(rand.NewSource(seed))
				deg := 1 + rng.Intn(40)
				a := NewArena(kind, int64(2*64))
				tb := a.TableFor(0, 64, pr) // capacity 127 > any deg
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
				gotK, gotW, ok := maxKeyPreferLow(&tb)
				if !ok || gotK != bestK || gotW != bestW {
					return false
				}
				// Every oracle key is present with the right total.
				for k, w := range oracle {
					found := false
					for s := 0; s < tb.Capacity(); s++ {
						if tb.Key(s) == k {
							if tb.Value(s) != w {
								return false
							}
							found = true
							break
						}
					}
					if !found {
						return false
					}
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
				t.Errorf("kind=%v probing=%v: %v", kind, pr, err)
			}
		}
	}
}

// maxKeyPreferLow is MaxKey with a slot-layout-independent tie-break (among
// equal weights the smaller key wins), so a read-out can be compared with a
// map oracle.
func maxKeyPreferLow(t *Table) (key uint32, weight float64, ok bool) {
	key = EmptyKey
	for s := 0; s < t.Capacity(); s++ {
		k := t.Key(s)
		if k == EmptyKey {
			continue
		}
		w := t.Value(s)
		if !ok || w > weight || (w == weight && k < key) {
			key, weight, ok = k, w, true
		}
	}
	return key, weight, ok
}

// TestFullLoad fills a table to exactly its degree with distinct keys — the
// worst legal load — and checks every strategy still lands every key thanks
// to the linear fallback.
func TestFullLoad(t *testing.T) {
	for _, pr := range allProbings {
		for _, deg := range []int{1, 2, 3, 7, 15, 31} { // Mersenne degrees: 100% load
			a := NewArena(Float32, int64(2*deg)+2)
			tb := a.TableFor(0, deg, pr)
			tb.Clear(0, 1)
			for k := 0; k < deg; k++ {
				if !tb.Accumulate(uint32(k*1009+7), 1, nil) {
					t.Fatalf("probing=%v deg=%d: failed to place key %d", pr, deg, k)
				}
			}
			// All placed exactly once.
			seen := map[uint32]bool{}
			for s := 0; s < tb.Capacity(); s++ {
				if k := tb.Key(s); k != EmptyKey {
					if seen[k] {
						t.Fatalf("probing=%v: duplicate key %d", pr, k)
					}
					seen[k] = true
				}
			}
			if len(seen) != deg {
				t.Fatalf("probing=%v deg=%d: placed %d keys", pr, deg, len(seen))
			}
		}
	}
}

func TestFailureWithoutFallback(t *testing.T) {
	// Quadratic probing on a Mersenne-capacity table visits few distinct
	// slots; with the fallback disabled and a tiny retry budget, Algorithm
	// 2's "failed" status must surface.
	a := NewArena(Float32, 16)
	a.LinearFallback = false
	a.MaxRetries = 2
	tl := &Tally{}
	tb := a.TableFor(0, 3, Quadratic) // capacity 3
	tb.Clear(0, 1)
	failed := false
	for k := uint32(0); k < 3; k++ {
		if !tb.Accumulate(k*3, 1, tl) { // all keys hash to slot 0
			failed = true
		}
	}
	if !failed {
		t.Fatal("expected at least one failure with fallback disabled")
	}
	if tl.Failures == 0 {
		t.Error("failure not counted in the tally")
	}
}

func TestStatsCounting(t *testing.T) {
	a := NewArena(Float32, 32)
	tl := &Tally{}
	tb := a.TableFor(0, 8, Linear)
	tb.Clear(0, 1)
	tb.Accumulate(0, 1, tl)
	tb.Accumulate(15, 1, tl) // 15 mod 15 = 0: collides with key 0
	d := tl.Fold()
	if d.Accumulates != 2 {
		t.Errorf("Accumulates = %d, want 2", d.Accumulates)
	}
	if d.Probes < 3 {
		t.Errorf("Probes = %d, want >= 3", d.Probes)
	}
	if d.Collisions < 1 {
		t.Errorf("Collisions = %d, want >= 1", d.Collisions)
	}
	if *tl != (Tally{}) {
		t.Error("Fold did not zero the tally")
	}
}

func TestArenaBytes(t *testing.T) {
	if b := ArenaBytes(Float32, 100); b != 800 {
		t.Errorf("float32 arena bytes = %d, want 800", b)
	}
	if b := ArenaBytes(Float64, 100); b != 1200 {
		t.Errorf("float64 arena bytes = %d, want 1200", b)
	}
	// The estimate is what NewArena allocates.
	a32, a64 := NewArena(Float32, 100), NewArena(Float64, 100)
	if got := int64(len(a32.Keys))*4 + int64(len(a32.V32))*4; got != ArenaBytes(Float32, 100) {
		t.Errorf("float32 arena holds %d bytes, estimate %d", got, ArenaBytes(Float32, 100))
	}
	if got := int64(len(a64.Keys))*4 + int64(len(a64.V64))*8; got != ArenaBytes(Float64, 100) {
		t.Errorf("float64 arena holds %d bytes, estimate %d", got, ArenaBytes(Float64, 100))
	}
}

func TestTablesDoNotOverlap(t *testing.T) {
	// Two vertices with adjacent CSR offsets: their windows must be disjoint.
	a := NewArena(Float32, 2*(8+8))
	t1 := a.TableFor(0, 8, Linear) // window [0,15)
	t2 := a.TableFor(8, 8, Linear) // window [16,31)
	t1.Clear(0, 1)
	t2.Clear(0, 1)
	t1.Accumulate(1, 10, nil)
	t2.Accumulate(1, 20, nil)
	_, w1, _ := t1.MaxKey()
	_, w2, _ := t2.MaxKey()
	if w1 != 10 || w2 != 20 {
		t.Errorf("windows overlap: w1=%g w2=%g", w1, w2)
	}
}

func TestFloat32PrecisionBehaviour(t *testing.T) {
	// Accumulating unit weights stays exact in float32 well beyond any
	// realistic degree (< 2^24), which is why Figure 5 sees no quality loss.
	a := NewArena(Float32, 8)
	tb := a.TableFor(0, 2, Linear)
	tb.Clear(0, 1)
	for i := 0; i < 100000; i++ {
		tb.Accumulate(1, 1, nil)
	}
	if _, w, _ := tb.MaxKey(); w != 100000 {
		t.Errorf("float32 sum = %g, want 100000", w)
	}
}

func TestMaxKeyStrided(t *testing.T) {
	a := NewArena(Float64, 64)
	tb := a.TableFor(0, 8, Linear) // capacity 15
	tb.Clear(0, 1)
	// Keys land at slot = key mod 15.
	tb.Accumulate(1, 5, nil)  // slot 1
	tb.Accumulate(2, 9, nil)  // slot 2
	tb.Accumulate(16, 7, nil) // slot 1 occupied? 16 mod 15 = 1 -> probes to 2... occupied -> 3
	// Combine per-lane partial maxima the way the block kernel does.
	stride := 4
	var bestK uint32 = EmptyKey
	bestW := -1.0
	found := false
	for lane := 0; lane < stride; lane++ {
		k, w, ok := tb.MaxKeyStrided(lane, stride)
		if !ok {
			continue
		}
		if !found || w > bestW {
			bestK, bestW, found = k, w, true
		}
	}
	wantK, wantW, _ := tb.MaxKey()
	if !found || bestK != wantK || bestW != wantW {
		t.Errorf("strided max = (%d,%g), full max = (%d,%g)", bestK, bestW, wantK, wantW)
	}
	// A lane beyond capacity sees nothing.
	if _, _, ok := tb.MaxKeyStrided(15, 16); ok {
		t.Error("out-of-range lane found a key")
	}
}
