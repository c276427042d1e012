package nulpa

import (
	"context"
	"errors"
	"fmt"
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
