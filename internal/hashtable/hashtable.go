// Package hashtable implements the paper's per-vertex open-addressing
// hashtable (§4.2, Algorithm 2, Figure 2).
//
// In the paper all per-vertex tables live in two flat "global memory"
// buffers — a keys buffer and a values buffer, each 2·|E| words — and the
// table of vertex i is the window starting at slot 2·O_i (twice its CSR
// offset) with capacity p1 = nextPow2(D_i) − 1 slots, where D_i is the
// vertex degree and nextPow2(x) is the smallest power of two strictly
// greater than x. Because p1 ≥ D_i, a table always has room for every
// distinct neighbouring label, and because 2^k ≤ 2·D_i the window always
// fits in the reserved 2·D_i slots.
//
// A window can sit at any offset of an Arena: probe positions are reduced
// modulo the capacity and only then added to the window's base, so what a
// table does never depends on where it sits. ArenaBytes gives the paper's
// footprint for the device accounting; package nulpa backs it with one
// window per simulated SM at offset 0, sized to the largest table the SM
// has run, since a table is live only while its vertex runs.
//
// Collisions are resolved by open addressing with four strategies: linear
// probing, quadratic probing (step doubling), double hashing (fixed step
// k mod p2), and the paper's hybrid quadratic-double (δi ← 2·δi + k mod p2).
// The secondary modulus p2 is the next Mersenne number 2^(k+1)−1: the paper
// writes p2 = nextPow2(p1)−1, which evaluates back to p1 for Mersenne p1, so
// we take the intended "next" one — it is strictly larger than p1 and always
// coprime with it (gcd(2^a−1, 2^b−1) = 2^gcd(a,b)−1 = 1 for consecutive a,b).
//
// Values are aggregated label weights stored as either float32 or float64
// bit patterns (the paper's Figure 5 experiment), so one arena type holds
// either width. A table has a single writer: a vertex's table is filled by
// its own thread, or by its own block's lanes on one SM, in lane order, so
// every slot claim and value add is a plain operation; only the neighbour
// labels it reads, which other blocks move concurrently, are loaded
// atomically.
package hashtable

import (
	"fmt"
	"math"
	"math/bits"
)

// EmptyKey marks an unoccupied slot (φ in Algorithm 2). Vertex ids are
// always < 2^32−1 in practice, so the sentinel never collides with a label.
const EmptyKey = ^uint32(0)

// DefaultMaxRetries is the probe budget per accumulate before the linear
// fallback (or failure) triggers; generous relative to typical load factors.
const DefaultMaxRetries = 64

// Probing selects the collision resolution strategy (§4.2).
type Probing int

const (
	// Linear probing: fixed step of 1. Cache friendly, heavy clustering.
	Linear Probing = iota
	// Quadratic probing: step starts at 1 and doubles per collision.
	Quadratic
	// Double hashing: fixed per-key step k mod p2.
	Double
	// QuadraticDouble is the paper's hybrid: δi ← 2·δi + (k mod p2).
	QuadraticDouble
)

// String names the probing strategy as in the paper's figures.
func (p Probing) String() string {
	switch p {
	case Linear:
		return "linear"
	case Quadratic:
		return "quadratic"
	case Double:
		return "double"
	case QuadraticDouble:
		return "quadratic-double"
	default:
		return fmt.Sprintf("probing(%d)", int(p))
	}
}

// ValueKind selects the width of the aggregated-weight values (Figure 5).
type ValueKind int

const (
	// Float32 stores weights as 32-bit floats (the paper's final choice).
	Float32 ValueKind = iota
	// Float64 stores weights as 64-bit floats (the GVE-LPA default).
	Float64
)

// String names the value kind as in the paper's figures.
func (k ValueKind) String() string {
	if k == Float64 {
		return "double"
	}
	return "float"
}

// StatsSnapshot is one fold's hashtable counts. The launch and iteration
// records carry each field as a Hash* counter (enforced by reflection
// tests), and a run's totals are the sum of its records.
type StatsSnapshot struct {
	Accumulates int64 // accumulate calls
	Probes      int64 // slots inspected, including the first
	Collisions  int64 // probes beyond the first
	Fallbacks   int64 // accumulates that exhausted MaxRetries and fell back to linear scan
	Failures    int64 // accumulates that found no slot at all
}

// Tally is single-writer probe accounting: one per SM or per worker, written
// with plain adds by the only goroutine that passes it to Accumulate (on
// either table kind). Once that goroutine has joined, Fold hands the counts
// to the caller and the live metrics. The exported counters mirror
// StatsSnapshot one-to-one (enforced by a reflection test). A nil *Tally
// disables counting at the cost of one pointer test per accumulate.
type Tally struct {
	Accumulates int64
	Probes      int64
	Collisions  int64
	Fallbacks   int64
	Failures    int64

	// probeLen counts successful accumulates per hashtable_probe_length
	// bucket; failedProbes are the probes of failed accumulates, which the
	// histogram's sum leaves out.
	probeLen     [probeBuckets + 1]int64
	failedProbes int64
}

// hit records a successful accumulate that inspected probes slots, the
// first collisions of which were taken by other keys.
func (t *Tally) hit(probes, collisions int64) {
	if t == nil {
		return
	}
	t.Accumulates++
	t.Probes += probes
	t.Collisions += collisions
	// Bucket i of hashtable_probe_length holds lengths in (2^(i-1), 2^i].
	b := bits.Len64(uint64(probes - 1))
	if b > probeBuckets {
		b = probeBuckets
	}
	t.probeLen[b]++
}

// miss records an accumulate that found no slot after probes probes.
func (t *Tally) miss(probes, collisions int64) {
	if t == nil {
		return
	}
	t.Accumulates++
	t.Probes += probes
	t.Collisions += collisions
	t.Failures++
	t.failedProbes += probes
}

// Fold adds the tally to the hashtable_* metrics, zeroes it, and returns
// the folded counts. The caller must own the tally: every goroutine that
// counted into it has joined.
func (t *Tally) Fold() StatsSnapshot {
	d := StatsSnapshot{
		Accumulates: t.Accumulates,
		Probes:      t.Probes,
		Collisions:  t.Collisions,
		Fallbacks:   t.Fallbacks,
		Failures:    t.Failures,
	}
	if d == (StatsSnapshot{}) {
		return d
	}
	mProbeLen.Merge(t.probeLen[:], float64(d.Probes-t.failedProbes))
	if d.Fallbacks != 0 {
		mFallbacks.Add(d.Fallbacks)
	}
	if d.Failures != 0 {
		mFailures.Add(d.Failures)
	}
	*t = Tally{}
	return d
}

// Arena is backing storage for per-vertex tables: the bufK / bufV buffers
// of Algorithm 1 when sized 2·|E| slots, or one SM's window when sized to
// the largest table it runs.
type Arena struct {
	Kind ValueKind
	Keys []uint32
	V32  []uint32 // float32 bit patterns when Kind == Float32
	V64  []uint64 // float64 bit patterns when Kind == Float64

	// MaxRetries bounds probing per accumulate; 0 selects
	// DefaultMaxRetries.
	MaxRetries int
	// LinearFallback, when true (the default from NewArena), retries a
	// full-circle linear probe after MaxRetries misses, which always
	// succeeds because capacity ≥ degree. Disable to surface Algorithm 2's
	// "failed" status.
	LinearFallback bool
}

// NewArena allocates backing storage for `slots` hashtable slots (2·|E| for
// the paper's layout) with the given value width. Keys start empty and
// values 0.
func NewArena(kind ValueKind, slots int64) *Arena {
	a := &Arena{Kind: kind, MaxRetries: DefaultMaxRetries, LinearFallback: true}
	a.Keys = make([]uint32, slots)
	for i := range a.Keys {
		a.Keys[i] = EmptyKey
	}
	if kind == Float32 {
		a.V32 = make([]uint32, slots)
	} else {
		a.V64 = make([]uint64, slots)
	}
	return a
}

// ArenaBytes is the simulated device-memory footprint of NewArena(kind,
// slots) — the quantity the paper's Figure 5 reduces by choosing float32 —
// known before anything is allocated: a 4-byte key and a kind-wide value
// per slot.
func ArenaBytes(kind ValueKind, slots int64) int64 {
	if kind == Float32 {
		return slots * (4 + 4)
	}
	return slots * (4 + 8)
}

// Table is the hashtable view of one vertex: a window into the arena.
// Obtain one with Arena.TableFor. It is used by pointer: a copy of the view
// in every accumulate, probe and max-scan was a large share of the
// per-vertex hot path.
type Table struct {
	a       *Arena
	base    int64  // first slot of the window (2·O_i)
	p1      uint32 // capacity; Mersenne 2^k − 1
	p2      uint32 // secondary modulus; Mersenne 2^(k+1) − 1
	r1      uint64 // reciprocals[k]: reduces probe positions mod p1
	probing Probing
}

// reciprocals[m] is ⌈2^64 / (2^m − 1)⌉ mod 2^64. With it, rem reduces a
// 32-bit value modulo the Mersenne number 2^m − 1 by two multiplications
// instead of a division (Lemire, Kaser and Kurz, "Faster remainder by
// direct computation", 2019). Every p1 and p2 is such a number, so 32
// entries cover all tables. m = 1 wraps to 0, which is exact: x mod 1 = 0.
var reciprocals = func() (r [33]uint64) {
	for m := 1; m <= 32; m++ {
		r[m] = ^uint64(0)/(1<<m-1) + 1
	}
	return r
}()

// rem returns x mod p, where p = 2^m − 1 > 0 and r = reciprocals[m].
func rem(x uint64, p uint32, r uint64) uint64 {
	if x>>32 != 0 {
		return x % uint64(p)
	}
	hi, _ := bits.Mul64(r*x, uint64(p))
	return hi
}

// NextPow2 returns the smallest power of two strictly greater than x.
func NextPow2(x uint32) uint32 {
	if x >= 1<<31 {
		panic("hashtable: NextPow2 overflow")
	}
	return 1 << bits.Len32(x)
}

// CapacityFor returns p1, the table capacity used for a vertex of the given
// degree: nextPow2(degree) − 1.
func CapacityFor(degree int) uint32 {
	return NextPow2(uint32(degree)) - 1
}

// TableFor returns the table of a vertex of the given degree in the window
// at slot 2·offset, using the given probing strategy: the window occupies
// slots [2·offset, 2·offset+p1). The paper passes the vertex's CSR offset;
// a window of its own at offset 0 behaves identically, as the base never
// enters a probe position.
func (a *Arena) TableFor(offset int64, degree int, probing Probing) Table {
	p1 := CapacityFor(degree)
	p2 := 2*(p1+1) - 1
	return Table{a: a, base: 2 * offset, p1: p1, p2: p2, r1: reciprocals[bits.Len32(p1)], probing: probing}
}

// SecondaryModulus returns p2 (exported for tests and diagnostics).
func (t *Table) SecondaryModulus() uint32 { return t.p2 }

// Clear empties slots [lane, capacity) in steps of stride — the parallel
// hashtableClear of Algorithm 1. Use Clear(0, 1) from a single thread.
func (t *Table) Clear(lane, stride int) {
	keys := t.a.Keys[t.base : t.base+int64(t.p1)]
	if t.a.Kind == Float32 {
		clearSlots(keys, t.a.V32[t.base:t.base+int64(t.p1)], lane, stride)
	} else {
		clearSlots(keys, t.a.V64[t.base:t.base+int64(t.p1)], lane, stride)
	}
}

// steps returns key k's probe increment δi before its first collision and
// the recurrence after each one, δi ← δi<<shift + h2: linear keeps δi = 1,
// quadratic doubles it, double hashing keeps δi = k mod p2 (1 if 0), and
// quadratic-double is Algorithm 2's δi ← 2·δi + (k mod p2).
func (t *Table) steps(k uint32) (di uint64, shift uint, h2 uint64) {
	switch t.probing {
	case Linear:
		return 1, 0, 0
	case Quadratic:
		return 1, 1, 0
	case Double:
		return max(rem(uint64(k), t.p2, reciprocals[bits.Len32(t.p2)]), 1), 0, 0
	default: // QuadraticDouble
		return 1, 1, rem(uint64(k), t.p2, reciprocals[bits.Len32(t.p2)])
	}
}

// Accumulate adds weight v to key k's slot, inserting the key if absent —
// Algorithm 2, one call per neighbour; the kernels use the fused
// AccumulateLanes and Pick, which make the same decisions. It reports
// whether a slot was found; with the default linear fallback enabled it can
// only return false for a zero-capacity table. Probe accounting goes to tl,
// which must have a single writer — the calling goroutine; nil counts
// nothing.
func (t *Table) Accumulate(k uint32, v float64, tl *Tally) bool {
	s := t.slot(k, tl)
	if s < 0 {
		return false
	}
	t.addValue(t.base+s, v)
	return true
}

// slot is Algorithm 2's probe for key k: it returns the window slot holding
// k, claiming an empty one on the way, or -1 when the probe sequence and
// the linear fallback found none. It counts the probes into tl.
func (t *Table) slot(k uint32, tl *Tally) int64 {
	if t.p1 == 0 {
		tl.miss(0, 0)
		return -1
	}
	maxRetries := t.a.MaxRetries
	if maxRetries <= 0 {
		maxRetries = DefaultMaxRetries
	}
	i := uint64(k)
	var di, h2 uint64
	var shift uint
	for try := 0; try < maxRetries; try++ {
		s := int64(rem(i, t.p1, t.r1))
		if claimPlain(t.a.Keys, t.base+s, k) {
			tl.hit(int64(try)+1, int64(try))
			return s
		}
		if try == 0 {
			di, shift, h2 = t.steps(k)
		}
		i += di
		di = di<<shift + h2
	}
	// Every slot of the bounded probe sequence after the first collided.
	collisions := int64(maxRetries - 1)
	if !t.a.LinearFallback {
		tl.miss(int64(maxRetries), collisions)
		return -1
	}
	if tl != nil {
		tl.Fallbacks++
	}
	// Full-circle linear probe: guaranteed to find k's slot or an empty one
	// because capacity ≥ degree ≥ distinct keys.
	s0 := int64(rem(uint64(k), t.p1, t.r1))
	for off := int64(0); off < int64(t.p1); off++ {
		s := s0 + off
		if s >= int64(t.p1) {
			s -= int64(t.p1)
		}
		if claimPlain(t.a.Keys, t.base+s, k) {
			tl.hit(int64(maxRetries)+off+1, collisions)
			return s
		}
	}
	tl.miss(int64(maxRetries)+int64(t.p1), collisions)
	return -1
}

// claimPlain reports whether slot idx of keys holds key k, or was empty and
// now does. The probe loop inlines it.
func claimPlain(keys []uint32, idx int64, k uint32) bool {
	cur := keys[idx]
	if cur == EmptyKey {
		keys[idx] = k
		return true
	}
	return cur == k
}

func (t *Table) addValue(idx int64, v float64) {
	if t.a.Kind == Float32 {
		t.a.V32[idx] = math.Float32bits(math.Float32frombits(t.a.V32[idx]) + float32(v))
	} else {
		t.a.V64[idx] = math.Float64bits(math.Float64frombits(t.a.V64[idx]) + v)
	}
}

// Value returns the accumulated weight in slot s (0 when empty).
func (t *Table) Value(s int) float64 {
	idx := t.base + int64(s)
	if t.a.Kind == Float32 {
		return float64(math.Float32frombits(t.a.V32[idx]))
	}
	return math.Float64frombits(t.a.V64[idx])
}

// Key returns the key in slot s, or EmptyKey.
func (t *Table) Key(s int) uint32 { return t.a.Keys[t.base+int64(s)] }

// MaxKey scans the table and returns the key with the greatest accumulated
// weight and that weight — the hashtableMaxKey of Algorithm 1. Ties keep the
// lowest slot scanned first (the "strict" LPA variant: first label with the
// highest weight). ok is false for an empty table.
func (t *Table) MaxKey() (key uint32, weight float64, ok bool) {
	return t.MaxKeyStrided(0, 1)
}

// MaxKeyStrided is MaxKey restricted to slots lane, lane+stride, ... —
// one lane's share of a block-wide parallel max-reduce.
func (t *Table) MaxKeyStrided(lane, stride int) (key uint32, weight float64, ok bool) {
	key = EmptyKey
	for s := lane; s < int(t.p1); s += stride {
		k := t.Key(s)
		if k == EmptyKey {
			continue
		}
		w := t.Value(s)
		if !ok || w > weight {
			key, weight, ok = k, w, true
		}
	}
	return key, weight, ok
}
