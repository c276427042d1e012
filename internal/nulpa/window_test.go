package nulpa

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"math/rand"
	"runtime"
	"testing"

	"nulpa/internal/gen"
	"nulpa/internal/graph"
	"nulpa/internal/hashtable"
	"nulpa/internal/simt"
)

// TestWindowBytesWithinArena drives runs through the iteration body Detect
// uses and checks the per-SM hashtable windows against the paper's arena
// they back: the windows' capacities sum to at most 2·arcs slots, each
// window is backed by exactly its capacity's slots, and the device
// reservation is still the paper's layout. The star's
// hub (degree 5000) makes the bound bite: sizing every SM's window for the
// maximum degree would exceed the arena at 8 SMs.
func TestWindowBytesWithinArena(t *testing.T) {
	graphs := []struct {
		name string
		g    *graph.CSR
	}{
		{"web-20k", gen.Web(gen.DefaultWeb(20000, 8, 7))},
		{"star-5000", gen.Star(5001)},
	}
	for _, gc := range graphs {
		for _, sms := range []int{1, 2, 8} {
			t.Run(fmt.Sprintf("%s/sms%d", gc.name, sms), func(t *testing.T) {
				g, opt := gc.g, DefaultOptions()
				if err := checkOptions(&opt); err != nil {
					t.Fatal(err)
				}
				r, err := newDeviceRun(g, opt, simt.NewDevice(sms), runView{})
				if err != nil {
					t.Fatal(err)
				}
				defer r.free()
				for iter := 0; iter < opt.MaxIterations; iter++ {
					out := r.iterate(context.Background(), iter)
					if out.Err != nil {
						t.Fatal(out.Err)
					}
					if out.Record.DeltaN == 0 && !out.ForceContinue {
						break
					}
				}

				n, arcs := int64(g.NumVertices()), g.NumArcs()
				if want := int64(len(g.Offsets))*8 + arcs*8 + hashtable.ArenaBytes(opt.ValueKind, 2*arcs) + n*12; r.bytes != want {
					t.Errorf("device reservation %d bytes, want the paper's layout %d", r.bytes, want)
				}
				var capacity, grown int64
				for sm := range r.st.tallies {
					w := &r.st.tallies[sm].win
					if w.capacity == 0 {
						continue
					}
					grown++
					capacity += int64(w.capacity)
					if len(w.open.Keys) != w.capacity {
						t.Errorf("SM %d: window of capacity %d backed by %d slots", sm, w.capacity, len(w.open.Keys))
					}
				}
				if grown == 0 {
					t.Fatal("no SM grew a window: the check is vacuous")
				}
				if capacity > 2*arcs {
					t.Errorf("windows hold %d slots, more than the %d-slot arena they back", capacity, 2*arcs)
				}
				eager := int64(sms) * int64(hashtable.CapacityFor(g.MaxDegree()))
				if gc.name == "star-5000" && sms == 8 && eager <= 2*arcs {
					t.Errorf("max-degree sizing takes %d slots, within the %d-slot arena: the star does not test on-demand growth", eager, 2*arcs)
				}
			})
		}
	}
}

// TestWindowTableHeaders grows windows through random degree sequences —
// 1, 2^k−1 and 2^k up to 5000, which start, fill and cross capacity classes
// — and checks after each growth step that every header the window hands
// out, for any degree it holds, is the table Arena.TableFor builds, field
// for field, under every probing and value kind. The header set is one per
// class the window holds, and the window stays backed by exactly its
// capacity's slots. The coalesced window keeps building its tables from
// CoalescedArena.TableFor and has no headers.
func TestWindowTableHeaders(t *testing.T) {
	var degrees []int
	for k := 1; 1<<k <= 5000; k++ {
		degrees = append(degrees, 1<<k-1, 1<<k)
	}
	degrees = append(degrees, 1, 5000)
	rng := rand.New(rand.NewSource(1))
	probings := []hashtable.Probing{hashtable.Linear, hashtable.Quadratic, hashtable.Double, hashtable.QuadraticDouble}
	for _, kind := range []hashtable.ValueKind{hashtable.Float32, hashtable.Float64} {
		for _, probing := range probings {
			for _, coalesced := range []bool{false, true} {
				name := fmt.Sprintf("%v/%v/coalesced=%v", kind, probing, coalesced)
				t.Run(name, func(t *testing.T) {
					for trial := 0; trial < 4; trial++ {
						w := window{kind: kind, probing: probing, coalesced: coalesced}
						seen := 0
						for _, d := range rng.Perm(len(degrees)) {
							d = degrees[d]
							w.fit(d)
							seen = max(seen, d)
							checkWindowHeaders(t, &w, seen)
						}
					}
				})
			}
		}
	}
}

// checkWindowHeaders checks window w, grown for degrees up to seen, as
// TestWindowTableHeaders describes.
func checkWindowHeaders(t *testing.T, w *window, seen int) {
	t.Helper()
	if want := int(hashtable.CapacityFor(seen)); w.capacity != want {
		t.Fatalf("window grown to degree %d has capacity %d, want %d", seen, w.capacity, want)
	}
	if w.coalesced {
		if w.open != nil || w.tables != nil || len(w.coal.Keys) != w.capacity {
			t.Fatalf("coalesced window of capacity %d: open %v, %d headers, %d slots", w.capacity, w.open != nil, len(w.tables), len(w.coal.Keys))
		}
	} else if w.coal != nil || len(w.open.Keys) != w.capacity || len(w.tables) != bits.Len(uint(w.capacity))+1 {
		t.Fatalf("open window of capacity %d: coalesced %v, %d headers, %d slots", w.capacity, w.coal != nil, len(w.tables), len(w.open.Keys))
	}
	for c := 0; c <= bits.Len(uint(w.capacity)); c++ {
		for _, d := range []int{1 << c >> 1, 1<<c - 1} { // class c's least and greatest degree
			tb := w.tableFor(d)
			if w.coalesced {
				if want := w.coal.TableFor(0, d); !tb.isCoal || tb.coal != want {
					t.Fatalf("capacity %d, degree %d: coalesced table %+v, want %+v", w.capacity, d, tb.coal, want)
				}
				continue
			}
			if want := w.open.TableFor(0, d, w.probing); tb.isCoal || tb.open != want || w.tables[c] != want {
				t.Fatalf("capacity %d, degree %d: header %+v, want %+v", w.capacity, d, tb.open, want)
			}
		}
	}
}

// TestDetectAllocBelowArena: a 1-SM Detect of a 20k-vertex web graph
// allocates less than half the paper's 2·arcs-slot arena in all — labels,
// flags, lists, windows and records — because the host backs the arena
// with one window per SM.
func TestDetectAllocBelowArena(t *testing.T) {
	g := gen.Web(gen.DefaultWeb(20000, 8, 7))
	opt := DefaultOptions()
	opt.Device = simt.NewDevice(1)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	detect(t, g, opt)
	runtime.ReadMemStats(&after)
	arena := hashtable.ArenaBytes(opt.ValueKind, 2*g.NumArcs())
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= uint64(arena/2) {
		t.Errorf("Detect allocated %d bytes, not below half the %d-byte arena", grew, arena)
	}
}

// TestDeviceOOMRefusesBeforeAllocating: a run the device cannot hold is
// refused before its run state exists, so the refused attempt allocates
// less than one label array. TestDeviceOOM bounds the same attempt by the
// arena's bytes, which the run never allocates (a fitting run of its
// graph allocates less than a tenth of them), so that bound alone would
// pass a run that allocated its label arrays before reserving.
func TestDeviceOOMRefusesBeforeAllocating(t *testing.T) {
	g := gen.ErdosRenyi(20000, 100000, 1)
	opt := DefaultOptions()
	opt.Device = simt.NewDevice(2)
	opt.Device.MemBudget = detect(t, g, opt).DeviceBytes - 1
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Detect(g, opt)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, simt.ErrOutOfMemory) {
		t.Fatalf("Detect error %v, want simt.ErrOutOfMemory", err)
	}
	if grew, labels := after.TotalAlloc-before.TotalAlloc, uint64(4*g.NumVertices()); grew >= labels {
		t.Errorf("refused run allocated %d bytes, a label array is %d: allocation preceded the reservation", grew, labels)
	}
}
