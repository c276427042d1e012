package engine_test

import (
	"slices"
	"strings"
	"testing"

	"nulpa/internal/engine"
	_ "nulpa/internal/engine/all"
	"nulpa/internal/gen"
	"nulpa/internal/graph"
	"nulpa/internal/quality"
)

// The conformance suite runs every registered detector through the same
// contract checks: deterministic labels for a fixed seed, a valid compressed
// partition, modularity above the singleton baseline, and an error for an
// Extra of a foreign type. New algorithms get the suite for free by
// registering — no test changes needed.

// conformanceGraphs builds the two seeded synthetic inputs: a planted
// partition with clear community structure and a skewed web-style graph
// whose hubs stress tie-breaking and the convergence loop. (A road mesh
// would be unfair here: synchronous-update LPA legitimately oscillates on
// near-bipartite grids.)
func conformanceGraphs() map[string]*graph.CSR {
	planted, _ := gen.Planted(gen.PlantedConfig{
		N: 600, Communities: 12, DegIn: 10, DegOut: 2, Seed: 7,
	})
	web := gen.Web(gen.DefaultWeb(500, 8, 11))
	return map[string]*graph.CSR{"planted": planted, "web": web}
}

// detectors returns the registered algorithm names, excluding the test-only
// fakes that the registry unit tests install in the same binary.
func detectors(t *testing.T) []string {
	t.Helper()
	var names []string
	for _, name := range engine.List() {
		if !strings.HasPrefix(name, "test-") {
			names = append(names, name)
		}
	}
	if len(names) < 9 {
		t.Fatalf("engine.List() has %d algorithm detectors, want >= 9: %v", len(names), names)
	}
	return names
}

// TestListIsSortedAndComplete pins the registry's public surface: List must
// return every repository detector, sorted, with no strays. A new algorithm
// updates this list deliberately; an accidental registration (or a lost one)
// fails here by name.
func TestListIsSortedAndComplete(t *testing.T) {
	got := detectors(t)
	if !slices.IsSorted(got) {
		t.Errorf("engine.List() is not sorted: %v", got)
	}
	want := []string{
		"copra", "flpa", "gunrock", "gvelpa", "labelrank",
		"louvain", "nulpa", "nulpa-direct", "nulpa-sharded", "plp", "slpa",
	}
	if !slices.Equal(got, want) {
		t.Errorf("engine.List() = %v, want %v", got, want)
	}
}

// singletonModularity is the quality floor: every vertex in its own
// community. It is negative on any graph with edges, so any detector doing
// real work must beat it.
func singletonModularity(g *graph.CSR) float64 {
	labels := make([]uint32, g.NumVertices())
	for i := range labels {
		labels[i] = uint32(i)
	}
	return quality.Modularity(g, labels)
}

// checkPartition asserts the result carries a valid compressed partition:
// one label per vertex, ids dense in [0, Communities).
func checkPartition(t *testing.T, g *graph.CSR, res *engine.Result) {
	t.Helper()
	if len(res.Labels) != g.NumVertices() {
		t.Fatalf("got %d labels for %d vertices", len(res.Labels), g.NumVertices())
	}
	seen := make([]bool, res.Communities)
	for v, c := range res.Labels {
		if int(c) >= res.Communities {
			t.Fatalf("vertex %d has label %d outside [0, %d)", v, c, res.Communities)
		}
		seen[c] = true
	}
	for c, ok := range seen {
		if !ok {
			t.Fatalf("label %d unused: ids are not dense", c)
		}
	}
}

func TestConformance(t *testing.T) {
	graphs := conformanceGraphs()
	for _, name := range detectors(t) {
		for gname, g := range graphs {
			t.Run(name+"/"+gname, func(t *testing.T) {
				det, err := engine.MustGet(name)
				if err != nil {
					t.Fatal(err)
				}
				opt := engine.DefaultOptions()
				opt.Workers = 1 // sequential: determinism must be exact
				first, err := det.Detect(g, opt)
				if err != nil {
					t.Fatal(err)
				}
				checkPartition(t, g, first)

				second, err := det.Detect(g, opt)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(first.Labels, second.Labels) {
					t.Errorf("labels differ between two runs with the same seed")
				}

				floor := singletonModularity(g)
				if q := quality.Modularity(g, first.Labels); q <= floor {
					t.Errorf("modularity %.4f does not beat the singleton floor %.4f", q, floor)
				}
				if first.Iterations <= 0 {
					t.Errorf("Iterations = %d, want > 0", first.Iterations)
				}
			})
		}
		// No detector silently ignores an option it does not take.
		t.Run(name+"/foreign-extra", func(t *testing.T) {
			det, err := engine.MustGet(name)
			if err != nil {
				t.Fatal(err)
			}
			opt := engine.DefaultOptions()
			opt.Extra = struct{}{}
			if _, err := det.Detect(graphs["planted"], opt); err == nil {
				t.Error("Detect accepted an Extra of foreign type struct{}")
			}
		})
	}
}

// TestConformanceParallel exercises each detector's parallel path (several
// workers) under the race detector. Labels may differ run to run here; only
// the partition contract is checked.
func TestConformanceParallel(t *testing.T) {
	g := conformanceGraphs()["planted"]
	for _, name := range detectors(t) {
		t.Run(name, func(t *testing.T) {
			det, err := engine.MustGet(name)
			if err != nil {
				t.Fatal(err)
			}
			opt := engine.DefaultOptions()
			opt.Workers = 4
			res, err := det.Detect(g, opt)
			if err != nil {
				t.Fatal(err)
			}
			checkPartition(t, g, res)
			floor := singletonModularity(g)
			if q := quality.Modularity(g, res.Labels); q <= floor {
				t.Errorf("modularity %.4f does not beat the singleton floor %.4f", q, floor)
			}
		})
	}
}
