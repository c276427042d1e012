package hashtable

import "math"

// Coalesced chaining (the appendix figure's comparison point): a hybrid of
// separate chaining and open addressing. Every slot belongs to the flat
// arena, but occupied slots form chains through a third array H_n of "next"
// indices, so a colliding key walks the chain of its home bucket instead of
// re-probing, and claims any free slot (found by linear scan) when the chain
// ends. The paper found this did not outperform open addressing with
// quadratic-double probing.

// noNext marks the end of a chain.
const noNext = ^uint32(0)

// CoalescedArena backs per-vertex coalesced-chaining tables: keys, values
// and next-pointers, each 2·|E| slots in the paper's layout or one window's
// worth (see Arena).
type CoalescedArena struct {
	Kind ValueKind
	Keys []uint32
	Next []uint32
	V32  []uint32
	V64  []uint64
}

// NewCoalescedArena allocates storage for `slots` slots.
func NewCoalescedArena(kind ValueKind, slots int64) *CoalescedArena {
	a := &CoalescedArena{Kind: kind}
	a.Keys = make([]uint32, slots)
	a.Next = make([]uint32, slots)
	for i := range a.Keys {
		a.Keys[i] = EmptyKey
		a.Next[i] = noNext
	}
	if kind == Float32 {
		a.V32 = make([]uint32, slots)
	} else {
		a.V64 = make([]uint64, slots)
	}
	return a
}

// CoalescedArenaBytes is the simulated memory footprint of
// NewCoalescedArena(kind, slots): the open-addressing arena's plus a 4-byte
// Next link per slot, so strictly larger.
func CoalescedArenaBytes(kind ValueKind, slots int64) int64 {
	return ArenaBytes(kind, slots) + slots*4
}

// CoalescedTable is one vertex's coalesced-chaining table, used by pointer.
type CoalescedTable struct {
	a    *CoalescedArena
	base int64
	p1   uint32
}

// TableFor returns the coalesced table of a vertex of the given degree in
// the window at slot 2·offset; same window geometry as the open-addressing
// Table, and the base likewise never enters a slot choice or a chain link
// (links are window slots).
func (a *CoalescedArena) TableFor(offset int64, degree int) CoalescedTable {
	return CoalescedTable{a: a, base: 2 * offset, p1: CapacityFor(degree)}
}

// Clear empties slots [lane, capacity) in steps of stride.
func (t *CoalescedTable) Clear(lane, stride int) {
	for s := lane; s < int(t.p1); s += stride {
		t.a.Keys[t.base+int64(s)] = EmptyKey
		t.a.Next[t.base+int64(s)] = noNext
		if t.a.Kind == Float32 {
			t.a.V32[t.base+int64(s)] = 0
		} else {
			t.a.V64[t.base+int64(s)] = 0
		}
	}
}

// Accumulate adds weight v to key k, inserting it at the tail of its home
// bucket's chain if absent. Every chain hop counts as a probe and every hop
// past the home bucket as a collision; the free-slot scan that extends a
// chain is not counted. Probe accounting goes to tl as in Table.Accumulate.
func (t *CoalescedTable) Accumulate(k uint32, v float64, tl *Tally) bool {
	if t.p1 == 0 {
		tl.miss(0, 0)
		return false
	}
	s := int64(k % t.p1)
	for hops := int64(0); hops <= int64(t.p1); hops++ {
		idx := t.base + s
		cur := t.a.Keys[idx]
		if cur == EmptyKey {
			t.a.Keys[idx] = k
			t.addValue(idx, v)
			tl.hit(hops+1, hops)
			return true
		}
		if cur == k {
			t.addValue(idx, v)
			tl.hit(hops+1, hops)
			return true
		}
		next := t.a.Next[idx]
		if next != noNext {
			s = int64(next)
			continue
		}
		// Chain ended: claim a free slot by linear scan and link it.
		free, ok := t.findFreePlain(s)
		if !ok {
			tl.miss(hops+1, hops)
			return false
		}
		t.a.Keys[t.base+free] = k
		t.addValue(t.base+free, v)
		t.a.Next[idx] = uint32(free)
		tl.hit(hops+1, hops)
		return true
	}
	tl.miss(int64(t.p1)+1, int64(t.p1))
	return false
}

func (t *CoalescedTable) findFreePlain(from int64) (int64, bool) {
	for off := int64(1); off <= int64(t.p1); off++ {
		s := from + off
		if s >= int64(t.p1) {
			s -= int64(t.p1)
		}
		if t.a.Keys[t.base+s] == EmptyKey {
			return s, true
		}
	}
	return 0, false
}

func (t *CoalescedTable) addValue(idx int64, v float64) {
	if t.a.Kind == Float32 {
		t.a.V32[idx] = math.Float32bits(math.Float32frombits(t.a.V32[idx]) + float32(v))
	} else {
		t.a.V64[idx] = math.Float64bits(math.Float64frombits(t.a.V64[idx]) + v)
	}
}

// Value returns the accumulated weight in slot s.
func (t *CoalescedTable) Value(s int) float64 {
	idx := t.base + int64(s)
	if t.a.Kind == Float32 {
		return float64(math.Float32frombits(t.a.V32[idx]))
	}
	return math.Float64frombits(t.a.V64[idx])
}

// Key returns the key in slot s, or EmptyKey.
func (t *CoalescedTable) Key(s int) uint32 { return t.a.Keys[t.base+int64(s)] }

// MaxKeyStrided is MaxKey restricted to slots lane, lane+stride, ....
func (t *CoalescedTable) MaxKeyStrided(lane, stride int) (key uint32, weight float64, ok bool) {
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

// MaxKey returns the first key with the greatest accumulated weight in slot
// order (the "strict" LPA selection, matching Table.MaxKey).
func (t *CoalescedTable) MaxKey() (key uint32, weight float64, ok bool) {
	return t.MaxKeyStrided(0, 1)
}
