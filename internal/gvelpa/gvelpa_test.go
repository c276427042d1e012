package gvelpa

import (
	"testing"

	"nulpa/internal/engine"
	"nulpa/internal/gen"
	"nulpa/internal/quality"
)

func TestPlantedRecovery(t *testing.T) {
	g, truth := gen.Planted(gen.PlantedConfig{N: 400, Communities: 8, DegIn: 14, DegOut: 0.5, Seed: 3})
	res := must(Detector{}.Detect(g, engine.Options{}))
	if !res.Converged {
		t.Errorf("did not converge in %d iterations", res.Iterations)
	}
	if nmi := quality.NMI(res.Labels, truth); nmi < 0.85 {
		t.Errorf("NMI = %.3f, want >= 0.85", nmi)
	}
	if q := quality.Modularity(g, res.Labels); q < 0.5 {
		t.Errorf("Q = %.3f", q)
	}
}

func TestThreadTableSpace(t *testing.T) {
	g := gen.ErdosRenyi(1000, 4000, 2)
	res := must(Detector{}.Detect(g, engine.Options{Workers: 4}))
	// O(T·N) doubles: 4 workers × 1000 vertices × 8 bytes.
	if res.MemoryBytes != 4*1000*8 {
		t.Errorf("MemoryBytes = %d, want %d", res.MemoryBytes, 4*1000*8)
	}
}

func TestThreadTableOracle(t *testing.T) {
	tbl := newThreadTable(100)
	tbl.accumulate(5, 1)
	tbl.accumulate(9, 3)
	tbl.accumulate(5, 1)
	tbl.accumulate(9, 0.5)
	best, ok := tbl.best(0)
	if !ok || best != 9 {
		t.Errorf("best = %d,%v want 9,true", best, ok)
	}
	tbl.clear()
	if _, ok := tbl.best(0); ok {
		t.Error("table not empty after clear")
	}
	// Values array fully zeroed (sparse clear correctness).
	for i, v := range tbl.values {
		if v != 0 {
			t.Fatalf("values[%d] = %g after clear", i, v)
		}
	}
}

func TestThreadTableTieBreakRotates(t *testing.T) {
	tbl := newThreadTable(10)
	tbl.accumulate(7, 2)
	tbl.accumulate(3, 2)
	// Ties resolve by scan order rotated by the vertex id: even vertices
	// start at the first inserted key (7), odd at the second (3).
	if best, _ := tbl.best(0); best != 7 {
		t.Errorf("tie best(0) = %d, want 7", best)
	}
	if best, _ := tbl.best(1); best != 3 {
		t.Errorf("tie best(1) = %d, want 3", best)
	}
}

func TestSingleWorker(t *testing.T) {
	g, truth := gen.Planted(gen.PlantedConfig{N: 300, Communities: 6, DegIn: 12, DegOut: 0.5, Seed: 4})
	res := must(Detector{}.Detect(g, engine.Options{Workers: 1}))
	if nmi := quality.NMI(res.Labels, truth); nmi < 0.85 {
		t.Errorf("NMI = %.3f", nmi)
	}
}

func TestLabelsValid(t *testing.T) {
	g := gen.Web(gen.DefaultWeb(900, 6, 2))
	res := must(Detector{}.Detect(g, engine.Options{}))
	for i, c := range res.Labels {
		if int(c) >= g.NumVertices() {
			t.Fatalf("labels[%d] = %d out of range", i, c)
		}
	}
}

func TestEmptyGraph(t *testing.T) {
	g := gen.MatchedPairs(0)
	res := must(Detector{}.Detect(g, engine.Options{}))
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
