package hashtable

import (
	"math"

	"nulpa/internal/simt"
)

// The single-writer (plain) paths of the open-addressing table, written once
// over the value word so each value kind compiles to its own loop with no
// per-slot Kind branch: the window clear, a block's accumulate phase and the
// thread-per-vertex kernel's whole per-vertex step.

// word is the bit pattern of an arena value: float32 bits in V32 (Float32)
// or float64 bits in V64 (Float64).
type word interface{ uint32 | uint64 }

// clearSlots empties slots lane, lane+stride, … of a window.
func clearSlots[W word](keys []uint32, vals []W, lane, stride int) {
	if stride == 1 && lane < len(keys) {
		keys, vals = keys[lane:], vals[lane:]
		for s := range keys {
			keys[s] = EmptyKey
		}
		clear(vals)
		return
	}
	for s := lane; s < len(keys); s += stride {
		keys[s] = EmptyKey
		vals[s] = 0
	}
}

// add returns the word of x + v at the word's width — a Float32 table adds
// float32(v) in float32, as Accumulate does — and the sum widened to
// float64, which orders sums of either width as MaxKey compares them.
func add[W word](x W, v float64) (W, float64) {
	if ^W(0) == W(^uint32(0)) {
		sum := math.Float32frombits(uint32(x)) + float32(v)
		return W(math.Float32bits(sum)), float64(sum)
	}
	sum := math.Float64frombits(uint64(x)) + v
	return W(math.Float64bits(sum)), sum
}

// AccumulateLanes is a block's plain accumulate phase for lanes [lo, hi):
// lane L adds the label of every neighbour ts[L], ts[L+stride], … other
// than self, in lane order — Accumulate(labels[j], ws[x], tl) per
// neighbour, with the same slots, sums and counts. The table must have a
// single writer; labels are read atomically because other vertices' writers
// move them concurrently.
//
// It also returns the first heaviest key in slot order among the slots it
// added to, kept as they fill, and whether that running max is exact (see
// fillSlots). On a table that was empty before the call, an exact best is
// MaxKey's key: the block kernel's max-reduce without a scan.
func (t *Table) AccumulateLanes(self uint32, ts []uint32, ws []float32, labels []uint32, lo, hi, stride int, tl *Tally) (best uint32, exact bool) {
	if t.a.Kind == Float32 {
		return fillSlots(t, t.a.V32[t.base:t.base+int64(t.p1)], self, ts, ws, labels, lo, hi, stride, tl)
	}
	return fillSlots(t, t.a.V64[t.base:t.base+int64(t.p1)], self, ts, ws, labels, lo, hi, stride, tl)
}

// Pick is the thread-per-vertex kernel's step for one vertex in one
// single-writer pass: Clear(0, 1), Accumulate(labels[j], ws[x], tl)
// for every neighbour j = ts[x] other than self in order, then MaxKey. It
// returns the first heaviest key in slot order, or EmptyKey when no label
// was accumulated, and leaves the window and tl exactly as that sequence
// does. Labels are read atomically, as in AccumulateLanes. The clear and
// the fill are called on the value words directly: at a road vertex's
// degree, a call layer per step costs about as much as the arcs.
func (t *Table) Pick(self uint32, ts []uint32, ws []float32, labels []uint32, tl *Tally) uint32 {
	keys := t.a.Keys[t.base : t.base+int64(t.p1)]
	var best uint32
	var exact bool
	if t.a.Kind == Float32 {
		vals := t.a.V32[t.base : t.base+int64(t.p1)]
		clearSlots(keys, vals, 0, 1)
		best, exact = fillSlots(t, vals, self, ts, ws, labels, 0, 1, 1, tl)
	} else {
		vals := t.a.V64[t.base : t.base+int64(t.p1)]
		clearSlots(keys, vals, 0, 1)
		best, exact = fillSlots(t, vals, self, ts, ws, labels, 0, 1, 1, tl)
	}
	if !exact {
		best, _, _ = t.MaxKey()
	}
	return best
}

// fillSlots adds the neighbour labels of lanes [lo, hi) to the window
// whose values are vals, as AccumulateLanes describes. It also returns the
// first heaviest key in slot order among the slots it added to, kept as
// they fill, and whether that running max is exact. It is exact while
// every added weight is >= 0 (so not NaN) and every key is a label: a
// slot's sum then never falls, so after an add to slot s the first
// heaviest slot is either the previous one or s — s wins if strictly
// heavier, or equally heavy at a lower slot. Otherwise only a MaxKey scan
// gives the answer.
func fillSlots[W word](t *Table, vals []W, self uint32, ts []uint32, ws []float32, labels []uint32, lo, hi, stride int, tl *Tally) (best uint32, exact bool) {
	keys := t.a.Keys[t.base : t.base+int64(t.p1)]
	best, exact = EmptyKey, true
	bestS, bestW := int64(0), -1.0 // any weight the max is exact for beats -1
	for lane := lo; lane < hi; lane++ {
		for x := lane; x < len(ts); x += stride {
			j := ts[x]
			if j == self {
				continue
			}
			k, v := simt.AtomicLoadUint32(labels, int(j)), float64(ws[x])
			// The home probe inline; slot repeats it on a collision, which
			// leaves the keys and counts as one probe would.
			s := int64(rem(uint64(k), t.p1, t.r1))
			if len(keys) != 0 && claimPlain(keys, s, k) {
				tl.hit(1, 0)
			} else if s = t.slot(k, tl); s < 0 {
				continue
			}
			var w float64
			vals[s], w = add(vals[s], v)
			exact = exact && v >= 0 && k != EmptyKey
			if w > bestW || w == bestW && s < bestS {
				best, bestS, bestW = k, s, w
			}
		}
	}
	return best, exact
}
