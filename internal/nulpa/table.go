package nulpa

import "nulpa/internal/hashtable"

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

// best returns the most weighted label using the paper's "strict" selection:
// the first label with the highest weight, in hashtable slot order. Slot
// order is label-hash order, which differs per vertex — this pseudo-random
// tie-break is load-bearing: a globally consistent rule (e.g. always the
// smallest label) lets one label cascade across community boundaries within
// a single asynchronous sweep and collapse distinct communities.
func (t *anyTable) best() (uint32, float64, bool) {
	if t.isCoal {
		return t.coal.MaxKey()
	}
	return t.open.MaxKey()
}
