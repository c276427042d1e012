package nulpa

import (
	"nulpa/internal/graph"
	"nulpa/internal/hashtable"
	"nulpa/internal/simt"
)

// anyArena and anyTable dispatch between the open-addressing hashtable (the
// default) and the coalesced-chaining variant (appendix experiment) without
// interface allocations in the per-vertex hot path. Like both views, an
// anyTable is used by pointer (TestHotPathTablesUsePointerReceivers).

type anyArena struct {
	open    *hashtable.Arena
	coal    *hashtable.CoalescedArena
	probing hashtable.Probing
}

func newAnyArena(opt Options, slots int64) anyArena {
	a := anyArena{probing: opt.Probing}
	if opt.Coalesced {
		a.coal = hashtable.NewCoalescedArena(opt.ValueKind, slots)
	} else {
		a.open = hashtable.NewArena(opt.ValueKind, slots)
	}
	return a
}

// arenaBytes is the device footprint newAnyArena(opt, slots) will have.
func arenaBytes(opt Options, slots int64) int64 {
	if opt.Coalesced {
		return hashtable.CoalescedArenaBytes(opt.ValueKind, slots)
	}
	return hashtable.ArenaBytes(opt.ValueKind, slots)
}

func (a anyArena) tableFor(offset int64, degree int) anyTable {
	if a.coal != nil {
		return anyTable{coal: a.coal.TableFor(offset, degree), isCoal: true}
	}
	return anyTable{open: a.open.TableFor(offset, degree, a.probing)}
}

// pick clears the table of the vertex self at CSR offset offset,
// accumulates the labels of its neighbours ts other than itself and returns
// the most weighted one, or hashtable.EmptyKey when there is none, using
// the paper's "strict" selection: the first label with the highest weight,
// in hashtable slot order. Slot order is label-hash order, which differs
// per vertex — this pseudo-random tie-break is load-bearing: a globally
// consistent rule (e.g. always the smallest label) lets one label cascade
// across community boundaries within a single asynchronous sweep and
// collapse distinct communities.
func (a anyArena) pick(self graph.Vertex, offset int64, ts []graph.Vertex, ws []float32, labels []uint32, tl *hashtable.Tally) uint32 {
	if a.coal == nil {
		tb := a.open.TableFor(offset, len(ts), a.probing)
		return tb.Pick(self, ts, ws, labels, tl)
	}
	tb := a.tableFor(offset, len(ts))
	tb.clear(0, 1)
	tb.accumulateLanes(self, ts, ws, labels, 0, 1, 1, false, tl)
	c, _, _ := tb.coal.MaxKey()
	return c
}

type anyTable struct {
	open   hashtable.Table
	coal   hashtable.CoalescedTable
	isCoal bool
}

func (t *anyTable) clear(lane, stride int) {
	if t.isCoal {
		t.coal.Clear(lane, stride)
		return
	}
	t.open.Clear(lane, stride)
}

// accumulateLanes is a block's accumulate phase for lanes [lo, hi): lane L
// adds the labels of neighbours ts[L], ts[L+stride], … other than self, in
// lane order, counting the probes into tl (nil: not counting). shared
// selects the atomic table path.
func (t *anyTable) accumulateLanes(self graph.Vertex, ts []graph.Vertex, ws []float32, labels []uint32, lo, hi, stride int, shared bool, tl *hashtable.Tally) {
	if !t.isCoal && !shared {
		t.open.AccumulateLanes(self, ts, ws, labels, lo, hi, stride, tl)
		return
	}
	for lane := lo; lane < hi; lane++ {
		for x := lane; x < len(ts); x += stride {
			if j := ts[x]; j != self {
				t.accumulate(simt.AtomicLoadUint32(labels, int(j)), float64(ws[x]), shared, tl)
			}
		}
	}
}

// accumulate adds v to label k's slot, counting the probes into tl (nil:
// not counting).
func (t *anyTable) accumulate(k uint32, v float64, shared bool, tl *hashtable.Tally) bool {
	if t.isCoal {
		return t.coal.Accumulate(k, v, shared, tl)
	}
	return t.open.Accumulate(k, v, shared, tl)
}

// BestStrided returns the first label with the highest weight among slots
// lane, lane+stride, ... — one lane's share of the parallel max-reduce.
func (t *anyTable) BestStrided(lane, stride int) (uint32, float64, bool) {
	if t.isCoal {
		return t.coal.MaxKeyStrided(lane, stride)
	}
	return t.open.MaxKeyStrided(lane, stride)
}
