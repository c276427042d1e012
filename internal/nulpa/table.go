package nulpa

import (
	"math/bits"

	"nulpa/internal/graph"
	"nulpa/internal/hashtable"
	"nulpa/internal/simt"
)

// window is one SM's hashtable backing. The paper carves every vertex's
// table from two 2·|E|-slot buffers because on hardware every resident
// thread holds its table at once; on the simulated device a table is live
// only while its vertex's pick (thread kernel) or its block's phases 1–3
// (block kernel) run on one SM goroutine, so each SM backs the tables it
// runs with one window at offset 0. Probe positions depend only on a
// table's capacity, never on its base, so slot order, tie-breaks, tallies
// and labels are the arena's. The device still reserves the paper's arena
// (arenaBytes); only the host backing shrinks to what is in flight.
//
// A window grows on demand to the capacity of the largest vertex its SM has
// run. A vertex's block always runs on the same SM, so the windows of a run
// are the tables of distinct vertices, and their capacities sum to at most
// the arena's 2·|E| slots at any SM count; sizing every window for the
// maximum degree would not (a star's hub at 8 SMs). A window is backed by
// exactly its capacity's slots.
//
// An open window also keeps one table header per capacity class it holds:
// tables[c] is Arena.TableFor(0, d, probing) for every degree d with
// bits.Len(d) = c, whose capacity is 2^c − 1. A vertex indexes its header
// by its degree, so the per-vertex step builds no table view. The headers
// are rebuilt, into the same backing while it fits, only when the window
// grows.
//
// window and anyTable dispatch between the open-addressing hashtable (the
// default) and the coalesced-chaining variant (appendix experiment) without
// interface allocations in the per-vertex hot path. Like both views, an
// anyTable is used by pointer (TestHotPathTablesUsePointerReceivers).
type window struct {
	open      *hashtable.Arena
	coal      *hashtable.CoalescedArena
	tables    []hashtable.Table // open headers by class bits.Len(degree)
	capacity  int               // usable slots: the largest table capacity grown to
	kind      hashtable.ValueKind
	probing   hashtable.Probing
	coalesced bool
}

// fit grows w, if needed, to hold the table of a vertex of the given degree.
// A capacity is 0 or 2^c − 1, so it holds a degree d's table, of capacity
// nextPow2(d) − 1, exactly when d <= capacity.
func (w *window) fit(degree int) {
	if degree > w.capacity {
		w.grow(degree)
	}
}

// grow backs w with a fresh window for a vertex of the given degree and,
// on the open table, builds the header of every class up to its own.
func (w *window) grow(degree int) {
	capacity := int(hashtable.CapacityFor(degree))
	if w.coalesced {
		w.coal = hashtable.NewCoalescedArena(w.kind, int64(capacity))
	} else {
		w.open = hashtable.NewArena(w.kind, int64(capacity))
		w.tables = w.tables[:0]
		for c := range bits.Len(uint(degree)) + 1 {
			w.tables = append(w.tables, w.open.TableFor(0, 1<<c-1, w.probing))
		}
	}
	w.capacity = capacity
}

// arenaBytes is the device footprint of the paper's arena of the given
// number of slots at opt's table kind: what a run reserves for its tables.
func arenaBytes(opt Options, slots int64) int64 {
	if opt.Coalesced {
		return hashtable.CoalescedArenaBytes(opt.ValueKind, slots)
	}
	return hashtable.ArenaBytes(opt.ValueKind, slots)
}

// tableFor returns the table of a vertex of the given degree in w, which
// must fit it.
func (w *window) tableFor(degree int) anyTable {
	if w.coal != nil {
		return anyTable{coal: w.coal.TableFor(0, degree), isCoal: true}
	}
	return anyTable{open: w.tables[bits.Len(uint(degree))]}
}

// pick clears the table of vertex self in w, which must fit it, accumulates
// the labels of its neighbours ts other than itself and returns the most
// weighted one, or hashtable.EmptyKey when there is none, using the paper's
// "strict" selection: the first label with the highest weight, in hashtable
// slot order. Slot order is label-hash order, which differs per vertex —
// this pseudo-random tie-break is load-bearing: a globally consistent rule
// (e.g. always the smallest label) lets one label cascade across community
// boundaries within a single asynchronous sweep and collapse distinct
// communities.
func (w *window) pick(self graph.Vertex, ts []graph.Vertex, ws []float32, labels []uint32, tl *hashtable.Tally) uint32 {
	if w.coal == nil {
		return w.tables[bits.Len(uint(len(ts)))].Pick(self, ts, ws, labels, tl)
	}
	tb := w.tableFor(len(ts))
	tb.clear(0, 1)
	tb.accumulateLanes(self, ts, ws, labels, 0, 1, 1, tl)
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
// lane order, counting the probes into tl (nil: not counting). It returns
// the open table's running max (hashtable.Table.AccumulateLanes); the
// coalesced table keeps none and reports it inexact.
func (t *anyTable) accumulateLanes(self graph.Vertex, ts []graph.Vertex, ws []float32, labels []uint32, lo, hi, stride int, tl *hashtable.Tally) (best uint32, exact bool) {
	if !t.isCoal {
		return t.open.AccumulateLanes(self, ts, ws, labels, lo, hi, stride, tl)
	}
	for lane := lo; lane < hi; lane++ {
		for x := lane; x < len(ts); x += stride {
			if j := ts[x]; j != self {
				t.coal.Accumulate(simt.AtomicLoadUint32(labels, int(j)), float64(ws[x]), tl)
			}
		}
	}
	return hashtable.EmptyKey, false
}

// BestStrided returns the first label with the highest weight among slots
// lane, lane+stride, ... — one lane's share of the parallel max-reduce.
func (t *anyTable) BestStrided(lane, stride int) (uint32, float64, bool) {
	if t.isCoal {
		return t.coal.MaxKeyStrided(lane, stride)
	}
	return t.open.MaxKeyStrided(lane, stride)
}
