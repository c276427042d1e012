package louvain

import (
	"testing"

	"nulpa/internal/engine"
	"nulpa/internal/gen"
	"nulpa/internal/graph"
	"nulpa/internal/quality"
)

func TestPlantedRecovery(t *testing.T) {
	g, truth := gen.Planted(gen.PlantedConfig{N: 400, Communities: 8, DegIn: 14, DegOut: 0.5, Seed: 3})
	res := must(Detector{}.Detect(g, engine.Options{}))
	if nmi := quality.NMI(res.Labels, truth); nmi < 0.9 {
		t.Errorf("NMI = %.3f, want >= 0.9", nmi)
	}
	if q := quality.Modularity(g, res.Labels); q < 0.6 {
		t.Errorf("Q = %.3f", q)
	}
}

func TestBeatsLPAQualityOnNoisyGraph(t *testing.T) {
	// The paper's headline trade-off: Louvain modularity exceeds LPA-family
	// modularity. Compare against the trivial singleton baseline and assert
	// strong positive modularity on a noisy community graph.
	g, _ := gen.Planted(gen.PlantedConfig{N: 500, Communities: 10, DegIn: 8, DegOut: 3, Seed: 7})
	res := must(Detector{}.Detect(g, engine.Options{}))
	q := quality.Modularity(g, res.Labels)
	if q < 0.3 {
		t.Errorf("Q = %.3f on noisy planted graph, want >= 0.3", q)
	}
}

func TestAggregationPreservesWeight(t *testing.T) {
	g, _ := gen.Planted(gen.PlantedConfig{N: 120, Communities: 4, DegIn: 10, DegOut: 1, Seed: 9})
	comm, moves, _ := localMove(g, 1e-6)
	if moves == 0 {
		t.Fatal("local move made no progress")
	}
	compacted, k := compactLabels(comm)
	agg := aggregate(g, compacted, k)
	if diff := agg.TotalWeight() - g.TotalWeight(); diff > 1e-6 || diff < -1e-6 {
		t.Errorf("aggregation changed total weight: %g -> %g", g.TotalWeight(), agg.TotalWeight())
	}
	if agg.NumVertices() != k {
		t.Errorf("aggregated to %d vertices, want %d", agg.NumVertices(), k)
	}
}

func TestAggregatedModularityConsistent(t *testing.T) {
	// Modularity of the partition on the original graph must equal the
	// modularity of singletons on the aggregated graph.
	g, _ := gen.Planted(gen.PlantedConfig{N: 150, Communities: 5, DegIn: 10, DegOut: 1, Seed: 11})
	comm, _, _ := localMove(g, 1e-6)
	compacted, k := compactLabels(comm)
	agg := aggregate(g, compacted, k)
	qOrig := quality.Modularity(g, compacted)
	singles := make([]uint32, k)
	for i := range singles {
		singles[i] = uint32(i)
	}
	qAgg := quality.Modularity(agg, singles)
	if diff := qOrig - qAgg; diff > 1e-5 || diff < -1e-5 {
		t.Errorf("modularity not preserved by aggregation: %.6f vs %.6f", qOrig, qAgg)
	}
}

func TestMultiLevelContraction(t *testing.T) {
	// Hierarchical graph: cliques of cliques should trigger >= 2 levels.
	g := hierarchicalCliques(t)
	res := must(Detector{}.Detect(g, engine.Options{}))
	if res.Iterations < 1 {
		t.Errorf("levels = %d, want >= 1", res.Iterations)
	}
	if q := quality.Modularity(g, res.Labels); q < 0.5 {
		t.Errorf("Q = %.3f", q)
	}
}

// hierarchicalCliques builds 8 cliques of 8 vertices, wired in 2 groups of 4
// cliques (dense between cliques in a group, sparse across groups).
func hierarchicalCliques(t *testing.T) *graph.CSR {
	t.Helper()
	var edges []graph.Edge
	for cl := 0; cl < 8; cl++ {
		base := graph.Vertex(8 * cl)
		for i := graph.Vertex(0); i < 8; i++ {
			for j := i + 1; j < 8; j++ {
				edges = append(edges, graph.Edge{U: base + i, V: base + j, W: 1})
			}
		}
	}
	// Group links.
	for grp := 0; grp < 2; grp++ {
		for a := 0; a < 4; a++ {
			for b := a + 1; b < 4; b++ {
				u := graph.Vertex(8 * (4*grp + a))
				v := graph.Vertex(8 * (4*grp + b))
				edges = append(edges, graph.Edge{U: u, V: v, W: 1}, graph.Edge{U: u + 1, V: v + 1, W: 1})
			}
		}
	}
	// One bridge between groups.
	edges = append(edges, graph.Edge{U: 0, V: 32, W: 1})
	g, err := graph.FromEdges(edges, 64, graph.DefaultBuildOptions())
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestLabelsValid(t *testing.T) {
	g := gen.Web(gen.DefaultWeb(600, 6, 3))
	res := must(Detector{}.Detect(g, engine.Options{}))
	if len(res.Labels) != g.NumVertices() {
		t.Fatalf("labels length %d", len(res.Labels))
	}
}

func TestEmptyAndEdgeless(t *testing.T) {
	g := gen.MatchedPairs(0)
	res := must(Detector{}.Detect(g, engine.Options{}))
	if len(res.Labels) != 0 {
		t.Errorf("labels = %v", res.Labels)
	}
	edgeless, _ := graph.FromEdges(nil, 5, graph.DefaultBuildOptions())
	res = must(Detector{}.Detect(edgeless, engine.Options{}))
	if quality.CountCommunities(res.Labels) != 5 {
		t.Error("edgeless graph should stay singletons")
	}
}

func TestParallelLocalMoveQuality(t *testing.T) {
	g, truth := gen.Planted(gen.PlantedConfig{N: 600, Communities: 12, DegIn: 12, DegOut: 1, Seed: 21})
	seq := must(Detector{}.Detect(g, engine.Options{}))
	par := must(Detector{}.Detect(g, engine.Options{Tolerance: 1e-6, MaxIterations: 20, Workers: 8}))
	qs := quality.Modularity(g, seq.Labels)
	qp := quality.Modularity(g, par.Labels)
	if qp < qs-0.1 {
		t.Errorf("parallel Louvain Q %.3f far below sequential %.3f", qp, qs)
	}
	if nmi := quality.NMI(par.Labels, truth); nmi < 0.85 {
		t.Errorf("parallel Louvain NMI = %.3f", nmi)
	}
}

func TestParallelLouvainEmptyAndTrivial(t *testing.T) {
	empty := gen.MatchedPairs(0)
	res := must(Detector{}.Detect(empty, engine.Options{Workers: 4, MaxIterations: 5}))
	if len(res.Labels) != 0 {
		t.Errorf("labels = %v", res.Labels)
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
