// Package integration holds cross-module tests: every algorithm against
// every dataset class, quality orderings the paper reports, and full
// pipeline runs (generate → save → load → detect → evaluate).
package integration

import (
	"path/filepath"
	"testing"

	"nulpa/internal/bench"
	"nulpa/internal/engine"
	"nulpa/internal/flpa"
	"nulpa/internal/gen"
	"nulpa/internal/graph"
	"nulpa/internal/gunrock"
	"nulpa/internal/gvelpa"
	"nulpa/internal/louvain"
	"nulpa/internal/nulpa"
	"nulpa/internal/plp"
	"nulpa/internal/quality"
)

// detectAll runs every disjoint-community algorithm on g and returns the
// labels keyed by method name.
func detectAll(t *testing.T, g *graph.CSR) map[string][]uint32 {
	t.Helper()
	out := map[string][]uint32{}
	res, err := nulpa.Detector{Direct: true}.Detect(g, engine.Options{})
	if err != nil {
		t.Fatalf("nulpa: %v", err)
	}
	out["nulpa"] = res.Labels
	out["flpa"] = must(flpa.Detector{}.Detect(g, engine.Options{})).Labels
	out["plp"] = must(plp.Detector{}.Detect(g, engine.Options{})).Labels
	out["gvelpa"] = must(gvelpa.Detector{}.Detect(g, engine.Options{})).Labels
	out["gunrock"] = must(gunrock.Detector{}.Detect(g, engine.Options{})).Labels
	out["louvain"] = must(louvain.Detector{}.Detect(g, engine.Options{})).Labels
	return out
}

// TestAllAlgorithmsOnAllDatasetClasses runs the full algorithm suite on one
// stand-in per dataset class and checks universally expected invariants.
func TestAllAlgorithmsOnAllDatasetClasses(t *testing.T) {
	defer bench.ClearCache()
	for _, name := range []string{"indochina-2004", "com-LiveJournal", "asia_osm", "kmer_A2a"} {
		g := bench.Graph(name, bench.Small)
		labelSets := detectAll(t, g)
		for method, labels := range labelSets {
			if len(labels) != g.NumVertices() {
				t.Fatalf("%s/%s: %d labels", name, method, len(labels))
			}
			for _, c := range labels {
				if int(c) >= g.NumVertices() {
					t.Fatalf("%s/%s: label out of range", name, method)
				}
			}
			q := quality.Modularity(g, labels)
			if q < -0.5 || q > 1 {
				t.Errorf("%s/%s: Q = %v out of bounds", name, method, q)
			}
			// Connected vertices in the same community stay in one
			// component: every community must be non-empty and smaller
			// than... (no strict invariant) — at minimum, some structure
			// beyond all-singletons on non-trivial graphs.
			if g.NumArcs() > 0 && quality.CountCommunities(labels) == g.NumVertices() && method != "gunrock" {
				t.Errorf("%s/%s: no vertices merged at all", name, method)
			}
		}
	}
}

// TestPaperQualityOrdering verifies the modularity relationships of Figure
// 6c on the community-structured classes: Louvain >= the LPA family, and
// every proper LPA clearly above zero.
func TestPaperQualityOrdering(t *testing.T) {
	defer bench.ClearCache()
	for _, name := range []string{"com-LiveJournal", "com-Orkut"} {
		g := bench.Graph(name, bench.Small)
		labelSets := detectAll(t, g)
		qs := map[string]float64{}
		for m, l := range labelSets {
			qs[m] = quality.Modularity(g, l)
		}
		if qs["louvain"] < qs["nulpa"]-0.02 {
			t.Errorf("%s: Louvain Q %.3f below nu-LPA %.3f", name, qs["louvain"], qs["nulpa"])
		}
		for _, m := range []string{"nulpa", "flpa", "plp", "gvelpa"} {
			if qs[m] < 0.2 {
				t.Errorf("%s: %s Q = %.3f, want clearly positive", name, m, qs[m])
			}
		}
	}
}

// TestPipelineGenerateSaveLoadDetect exercises the full user pipeline
// through the filesystem in every supported format.
func TestPipelineGenerateSaveLoadDetect(t *testing.T) {
	g, truth := gen.Planted(gen.PlantedConfig{N: 500, Communities: 10, DegIn: 12, DegOut: 0.5, Seed: 31})
	dir := t.TempDir()
	for _, name := range []string{"g.bin", "g.txt", "g.mtx", "g.graph"} {
		path := filepath.Join(dir, name)
		if err := graph.WriteFile(path, g); err != nil {
			t.Fatalf("write %s: %v", name, err)
		}
		back, err := graph.ReadFile(path)
		if err != nil {
			t.Fatalf("read %s: %v", name, err)
		}
		res, err := nulpa.Detect(back, nulpa.DefaultOptions())
		if err != nil {
			t.Fatalf("detect on %s: %v", name, err)
		}
		if nmi := quality.NMI(res.Labels, truth); nmi < 0.85 {
			t.Errorf("%s: NMI = %.3f after round trip", name, nmi)
		}
	}
}

// TestWeightedGraphsRespected checks that all algorithms weight edges
// rather than count them: a vertex tied to two communities follows the
// heavier edge.
func TestWeightedGraphsRespected(t *testing.T) {
	// Two triangles; vertex 6 has a weight-10 edge into triangle A (0,1,2)
	// and three weight-1 edges into triangle B (3,4,5).
	edges := []graph.Edge{
		{U: 0, V: 1, W: 5}, {U: 1, V: 2, W: 5}, {U: 0, V: 2, W: 5},
		{U: 3, V: 4, W: 5}, {U: 4, V: 5, W: 5}, {U: 3, V: 5, W: 5},
		{U: 6, V: 0, W: 10},
		{U: 6, V: 3, W: 1}, {U: 6, V: 4, W: 1}, {U: 6, V: 5, W: 1},
	}
	g, err := graph.FromEdges(edges, 7, graph.DefaultBuildOptions())
	if err != nil {
		t.Fatal(err)
	}
	for method, labels := range detectAll(t, g) {
		if labels[6] != labels[0] {
			t.Errorf("%s: vertex 6 ignored its weight-10 edge (labels %v)", method, labels)
		}
	}
}

// TestDirectedInputSymmetrized mirrors the paper's dataset preparation: a
// directed web-like edge list, built with Symmetrize, must be the same
// graph as its explicitly symmetrized arc list and be detected the same.
func TestDirectedInputSymmetrized(t *testing.T) {
	directed := []graph.Edge{{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 1}}
	var both []graph.Edge
	for _, e := range directed {
		both = append(both, e, graph.Edge{U: e.V, V: e.U, W: e.W})
	}
	sym, err := graph.FromEdges(directed, 3, graph.DefaultBuildOptions())
	if err != nil {
		t.Fatal(err)
	}
	explicit, err := graph.FromEdges(both, 3, graph.BuildOptions{Symmetrize: false, SumDuplicates: true, DropSelfLoops: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []*graph.CSR{sym, explicit} {
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	for u := graph.Vertex(0); u < 3; u++ {
		ts, ws := sym.Neighbors(u)
		te, we := explicit.Neighbors(u)
		if len(ts) != len(te) {
			t.Fatalf("vertex %d: degree %d, want %d", u, len(ts), len(te))
		}
		for k := range ts {
			if ts[k] != te[k] || ws[k] != we[k] {
				t.Fatalf("vertex %d: arc %d = (%d, %g), want (%d, %g)", u, k, ts[k], ws[k], te[k], we[k])
			}
		}
	}
	a := must(nulpa.Detect(sym, nulpa.DefaultOptions()))
	b := must(nulpa.Detect(explicit, nulpa.DefaultOptions()))
	if quality.CountCommunities(a.Labels) != 1 {
		t.Errorf("path graph split: %v", a.Labels)
	}
	for v := range a.Labels {
		if a.Labels[v] != b.Labels[v] {
			t.Fatalf("labels %v, explicitly symmetrized %v", a.Labels, b.Labels)
		}
	}
}

// must unwraps a detector result in tests where no error is expected
// (no context or fault injection is configured on these runs).
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}
