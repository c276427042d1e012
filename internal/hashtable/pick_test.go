package hashtable

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// pickCase is one random vertex: its window in an arena full of stale
// slots, its neighbour list (self loops included) and the label array the
// neighbours' labels are read from.
type pickCase struct {
	self   uint32
	offset int64
	ts     []uint32
	ws     []float32
	labels []uint32
}

// randomPickCase draws a vertex of degree 1..40 over 64 vertices whose
// labels crowd two home slots of its table, so probes collide, with weights
// drawn from weights. A few labels are EmptyKey, which is no label at all.
func randomPickCase(rng *rand.Rand, weights []float32) pickCase {
	const n = 64
	deg := 1 + rng.Intn(40)
	p1 := CapacityFor(deg)
	keys := append(homeKeys(1, p1, 6), homeKeys(p1/2, p1, 6)...)
	c := pickCase{self: uint32(rng.Intn(n)), offset: int64(rng.Intn(8)), labels: make([]uint32, n)}
	for i := range c.labels {
		switch r := rng.Intn(50); {
		case r == 0:
			c.labels[i] = EmptyKey
		case r < 30:
			c.labels[i] = keys[rng.Intn(len(keys))]
		default:
			c.labels[i] = uint32(rng.Intn(4 * n))
		}
	}
	for x := 0; x < deg; x++ {
		j := uint32(rng.Intn(n))
		if rng.Intn(8) == 0 {
			j = c.self
		}
		c.ts = append(c.ts, j)
		c.ws = append(c.ws, weights[rng.Intn(len(weights))])
	}
	return c
}

// staleArenas returns two identical arenas with room for c's window, every
// slot holding random keys and value bits, as a reused arena does.
func staleArenas(rng *rand.Rand, kind ValueKind, c pickCase, retries int, fallback bool) (a, b *Arena) {
	slots := 2 * (c.offset + int64(len(c.ts)) + 4)
	a, b = NewArena(kind, slots), NewArena(kind, slots)
	for i := range a.Keys {
		a.Keys[i] = rng.Uint32()
	}
	for i := range a.V32 {
		a.V32[i] = rng.Uint32()
	}
	for i := range a.V64 {
		a.V64[i] = rng.Uint64()
	}
	copy(b.Keys, a.Keys)
	copy(b.V32, a.V32)
	copy(b.V64, a.V64)
	a.MaxRetries, b.MaxRetries = retries, retries
	a.LinearFallback, b.LinearFallback = fallback, fallback
	return a, b
}

func sameArena(a, b *Arena) bool {
	return slices.Equal(a.Keys, b.Keys) && slices.Equal(a.V32, b.V32) && slices.Equal(a.V64, b.V64)
}

// slotBits is the value word of arena slot s.
func slotBits(a *Arena, s int) uint64 {
	if a.Kind == Float32 {
		return uint64(a.V32[s])
	}
	return a.V64[s]
}

// sameTallies compares two tallies field by field (probe-length buckets
// included) and then their folds.
func sameTallies(a, b *Tally) bool {
	return *a == *b && a.Fold() == b.Fold()
}

var pickWeights = []struct {
	name string
	ws   []float32
}{
	{"positive", []float32{0.5, 1, 1, 1.5, 2}}, // ties everywhere: the running max decides
	{"zero", []float32{0, 0, 1}},
	{"negative", []float32{1, -1, -0.5, 2}},
	{"nan", []float32{1, float32(math.NaN()), 2}},
}

// pickBudgets are the probe budgets the differential tests run under: the
// default, one small enough to send colliding keys to the linear fallback,
// and the same without the fallback, so accumulates fail.
var pickBudgets = []struct {
	retries  int
	fallback bool
}{{DefaultMaxRetries, true}, {2, true}, {2, false}}

// TestPickMatchesStepwise is the differential test of the fused pick:
// Pick must return the key, and leave the arena and the tally, exactly as
// Clear(0, 1), one Accumulate per neighbour other than self, in order, and
// MaxKey do — for every probing and value kind, with zero, negative and
// NaN weights, self loops, non-label keys, fallbacks and failures.
func TestPickMatchesStepwise(t *testing.T) {
	for _, kind := range allKinds {
		for _, pr := range allProbings {
			for _, wt := range pickWeights {
				for _, bg := range pickBudgets {
					name := fmt.Sprintf("%v/%v/%s/retries%d/fallback=%v", kind, pr, wt.name, bg.retries, bg.fallback)
					t.Run(name, func(t *testing.T) {
						rng := rand.New(rand.NewSource(int64(len(name))))
						var total StatsSnapshot
						for trial := 0; trial < 200; trial++ {
							c := randomPickCase(rng, wt.ws)
							ref, fused := staleArenas(rng, kind, c, bg.retries, bg.fallback)
							tr, tf := ref.TableFor(c.offset, len(c.ts), pr), fused.TableFor(c.offset, len(c.ts), pr)
							var lr, lf Tally
							tr.Clear(0, 1)
							for x, j := range c.ts {
								if j != c.self {
									tr.Accumulate(c.labels[j], float64(c.ws[x]), &lr)
								}
							}
							want, _, _ := tr.MaxKey()
							got := tf.Pick(c.self, c.ts, c.ws, c.labels, &lf)
							if got != want {
								t.Fatalf("trial %d: Pick = %d, stepwise = %d", trial, got, want)
							}
							if !sameArena(ref, fused) {
								t.Fatalf("trial %d: arenas differ after Pick", trial)
							}
							addBudget(&total, &lr)
							if !sameTallies(&lr, &lf) {
								t.Fatalf("trial %d: tallies differ: %+v vs %+v", trial, lr, lf)
							}
						}
						checkBudgetExercised(t, bg.retries, bg.fallback, total)
					})
				}
			}
		}
	}
}

// checkBudgetExercised fails a differential test whose streams never hit
// what its probe budget is there to reach.
// addBudget adds the counts checkBudgetExercised reads from tl to total.
func addBudget(total *StatsSnapshot, tl *Tally) {
	total.Collisions += tl.Collisions
	total.Fallbacks += tl.Fallbacks
	total.Failures += tl.Failures
}

func checkBudgetExercised(t *testing.T, retries int, fallback bool, total StatsSnapshot) {
	t.Helper()
	switch {
	case total.Collisions == 0:
		t.Error("no accumulate collided: the cases are vacuous")
	case retries < DefaultMaxRetries && fallback && total.Fallbacks == 0:
		t.Error("no accumulate took the linear fallback")
	case !fallback && total.Failures == 0:
		t.Error("no accumulate failed")
	}
}

// TestAccumulateLanesMatchesStepwise pins the block kernel's plain
// accumulate phase to Accumulate: lanes [lo, hi) of a stride-lane block, in
// lane order, into a table cleared lane by lane with Clear(lane, stride).
// The clear itself is checked slot by slot against its definition.
func TestAccumulateLanesMatchesStepwise(t *testing.T) {
	for _, kind := range allKinds {
		for _, pr := range allProbings {
			for _, bg := range pickBudgets {
				name := fmt.Sprintf("%v/%v/retries%d/fallback=%v", kind, pr, bg.retries, bg.fallback)
				t.Run(name, func(t *testing.T) {
					rng := rand.New(rand.NewSource(int64(len(name))))
					var total StatsSnapshot
					for trial := 0; trial < 200; trial++ {
						c := randomPickCase(rng, pickWeights[rng.Intn(len(pickWeights))].ws)
						ref, lanes := staleArenas(rng, kind, c, bg.retries, bg.fallback)
						tr, tn := ref.TableFor(c.offset, len(c.ts), pr), lanes.TableFor(c.offset, len(c.ts), pr)
						stride := []int{1, 3, 8, 32}[rng.Intn(4)]
						lo := rng.Intn(stride)
						hi := lo + 1 + rng.Intn(stride-lo)
						// One lane's clear of stride 1 starts anywhere: a
						// per-lane block clear hands the last lane its slot.
						from := 0
						if stride == 1 {
							from = rng.Intn(int(tn.p1) + 1)
							tn.Clear(from, 1)
						} else {
							for lane := lo; lane < hi; lane++ {
								tn.Clear(lane, stride)
							}
						}
						for s := range lanes.Keys {
							w := s - 2*int(c.offset)
							cleared := w >= from && w < int(tn.p1) && w%stride >= lo && w%stride < hi
							stale := ref.Keys[s] == lanes.Keys[s] && slotBits(ref, s) == slotBits(lanes, s)
							if cleared && (lanes.Keys[s] != EmptyKey || slotBits(lanes, s) != 0) || !cleared && !stale {
								t.Fatalf("trial %d: Clear lanes [%d, %d) of %d left slot %d wrong", trial, lo, hi, stride, s)
							}
						}
						copy(ref.Keys, lanes.Keys)
						copy(ref.V32, lanes.V32)
						copy(ref.V64, lanes.V64)
						var lr, ll Tally
						for lane := lo; lane < hi; lane++ {
							for x := lane; x < len(c.ts); x += stride {
								if j := c.ts[x]; j != c.self {
									tr.Accumulate(c.labels[j], float64(c.ws[x]), &lr)
								}
							}
						}
						tn.AccumulateLanes(c.self, c.ts, c.ws, c.labels, lo, hi, stride, &ll)
						if !sameArena(ref, lanes) {
							t.Fatalf("trial %d: arenas differ after AccumulateLanes", trial)
						}
						addBudget(&total, &lr)
						if !sameTallies(&lr, &ll) {
							t.Fatalf("trial %d: tallies differ: %+v vs %+v", trial, lr, ll)
						}
					}
					checkBudgetExercised(t, bg.retries, bg.fallback, total)
				})
			}
		}
	}
}

// TestAccumulateLanesTracksFold checks the running max AccumulateLanes
// returns against the block kernel's max-reduce it stands in for: on a
// cleared table of at most stride slots, each of lanes 0..capacity-1
// takes MaxKeyStrided of its one slot and the lanes fold in lane order,
// a later lane winning only if strictly heavier. Whenever the running max
// is reported exact it must be the fold's key (EmptyKey for an empty
// table). It must be reported exact exactly when every add that found a
// slot had a weight >= 0 and a label key: a negative or NaN add can
// lower or poison a slot, so those tables report inexact and the kernel
// folds; a zero add leaves every slot's sum where it was, so zero-weight
// tables stay exact and are checked against the fold like the rest.
func TestAccumulateLanesTracksFold(t *testing.T) {
	for _, kind := range allKinds {
		for _, pr := range allProbings {
			for _, wt := range pickWeights {
				for _, bg := range pickBudgets {
					name := fmt.Sprintf("%v/%v/%s/retries%d/fallback=%v", kind, pr, wt.name, bg.retries, bg.fallback)
					t.Run(name, func(t *testing.T) {
						rng := rand.New(rand.NewSource(int64(len(name))))
						exacts, ties := 0, 0
						for trial := 0; trial < 200; trial++ {
							c := randomPickCase(rng, wt.ws)
							ref, lanes := staleArenas(rng, kind, c, bg.retries, bg.fallback)
							tr, tn := ref.TableFor(c.offset, len(c.ts), pr), lanes.TableFor(c.offset, len(c.ts), pr)
							capacity := int(tn.p1)
							stride := []int{capacity, capacity + 1, 64, 256}[rng.Intn(4)]
							wantExact := true
							tr.Clear(0, 1)
							for x, j := range c.ts {
								v := float64(c.ws[x])
								if j != c.self && tr.Accumulate(c.labels[j], v, nil) && !(v >= 0 && c.labels[j] != EmptyKey) {
									wantExact = false
								}
							}
							tn.Clear(0, 1)
							best, exact := tn.AccumulateLanes(c.self, c.ts, c.ws, c.labels, 0, min(len(c.ts), stride), stride, nil)
							if exact != wantExact {
								t.Fatalf("trial %d: exact = %v, want %v", trial, exact, wantExact)
							}
							fold, foldW, foldOK := EmptyKey, 0.0, false
							for lane := range capacity {
								if k, w, ok := tn.MaxKeyStrided(lane, stride); ok && (!foldOK || w > foldW) {
									fold, foldW, foldOK = k, w, true
								}
							}
							if !exact {
								continue
							}
							exacts++
							if best != fold {
								t.Fatalf("trial %d: running max %d, lane-order fold %d", trial, best, fold)
							}
							heaviest := 0
							for s := range capacity {
								if tn.Key(s) != EmptyKey && tn.Value(s) == foldW {
									heaviest++
								}
							}
							if heaviest > 1 {
								ties++
							}
						}
						if wantSome := wt.name == "positive" || wt.name == "zero"; wantSome && ties < 20 {
							t.Errorf("%d exact tables, %d with a tie for the heaviest slot: too few to pin the tie rule", exacts, ties)
						}
					})
				}
			}
		}
	}
}

// TestRemMatchesModulo checks the division-free reduction against % for
// every Mersenne modulus a table can have, at the edges of the 32-bit range
// and past it.
func TestRemMatchesModulo(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for m := 1; m <= 32; m++ {
		p := uint32(1<<m - 1)
		xs := []uint64{0, 1, uint64(p) - 1, uint64(p), uint64(p) + 1, 1<<32 - 2, 1<<32 - 1, 1 << 32, math.MaxUint64}
		for i := 0; i < 2000; i++ {
			xs = append(xs, uint64(rng.Uint32()), rng.Uint64())
		}
		for _, x := range xs {
			if got, want := rem(x, p, reciprocals[m]), x%uint64(p); got != want {
				t.Fatalf("rem(%d, %d) = %d, want %d", x, p, got, want)
			}
		}
	}
}

// refAccumulate is Algorithm 2's plain accumulate written out directly, with
// % for every reduction: the reference Table.Accumulate's probe sequence,
// slot choice, sums and counts are checked against.
func refAccumulate(tb *Table, k uint32, v float64, tl *Tally) bool {
	a, p1, p2 := tb.a, uint64(tb.p1), uint64(tb.p2)
	try := func(s uint64) bool {
		idx := tb.base + int64(s)
		if a.Keys[idx] != k && a.Keys[idx] != EmptyKey {
			return false
		}
		a.Keys[idx] = k
		if a.Kind == Float32 {
			a.V32[idx] = math.Float32bits(math.Float32frombits(a.V32[idx]) + float32(v))
		} else {
			a.V64[idx] = math.Float64bits(math.Float64frombits(a.V64[idx]) + v)
		}
		return true
	}
	if p1 == 0 {
		tl.miss(0, 0)
		return false
	}
	retries := a.MaxRetries
	if retries <= 0 {
		retries = DefaultMaxRetries
	}
	h2 := uint64(k) % p2
	i, di := uint64(k), uint64(1)
	if tb.probing == Double {
		di = max(h2, 1)
	}
	for n := 0; n < retries; n++ {
		if try(i % p1) {
			tl.hit(int64(n)+1, int64(n))
			return true
		}
		i += di
		switch tb.probing {
		case Quadratic:
			di *= 2
		case QuadraticDouble:
			di = 2*di + h2
		}
	}
	collisions := int64(retries - 1)
	if !a.LinearFallback {
		tl.miss(int64(retries), collisions)
		return false
	}
	tl.Fallbacks++
	for off := uint64(0); off < p1; off++ {
		if try((uint64(k) + off) % p1) {
			tl.hit(int64(retries)+int64(off)+1, collisions)
			return true
		}
	}
	tl.miss(int64(retries)+int64(p1), collisions)
	return false
}

// TestAccumulateMatchesReference pins Accumulate to refAccumulate under
// every probing, value kind and probe budget: the same result, arena and tally after every call. Keys reach
// past 2^31 so a quadratic probe position outgrows 32 bits and wraps.
func TestAccumulateMatchesReference(t *testing.T) {
	for _, kind := range allKinds {
		for _, pr := range allProbings {
			for _, bg := range pickBudgets {
				name := fmt.Sprintf("%v/%v/retries%d/fallback=%v", kind, pr, bg.retries, bg.fallback)
				t.Run(name, func(t *testing.T) {
					rng := rand.New(rand.NewSource(int64(len(name))))
					var total StatsSnapshot
					for trial := 0; trial < 100; trial++ {
						c := randomPickCase(rng, pickWeights[rng.Intn(len(pickWeights))].ws)
						if trial%2 == 1 {
							for i := range c.labels {
								c.labels[i] |= 1 << 31
							}
						}
						ref, got := staleArenas(rng, kind, c, bg.retries, bg.fallback)
						tr, tg := ref.TableFor(c.offset, len(c.ts), pr), got.TableFor(c.offset, len(c.ts), pr)
						tr.Clear(0, 1)
						tg.Clear(0, 1)
						var lr, lg Tally
						for x, j := range c.ts {
							k, v := c.labels[j], float64(c.ws[x])
							if refAccumulate(&tr, k, v, &lr) != tg.Accumulate(k, v, &lg) || !sameArena(ref, got) || lr != lg {
								t.Fatalf("trial %d, call %d (key %d): Accumulate departs from the reference", trial, x, k)
							}
						}
						addBudget(&total, &lr)
						lr.Fold()
						lg.Fold()
					}
					checkBudgetExercised(t, bg.retries, bg.fallback, total)
				})
			}
		}
	}
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
