package flpa

import (
	"testing"

	"nulpa/internal/engine"
	"nulpa/internal/gen"
	"nulpa/internal/quality"
	"nulpa/internal/telemetry"
)

func TestPlantedRecovery(t *testing.T) {
	g, truth := gen.Planted(gen.PlantedConfig{N: 400, Communities: 8, DegIn: 14, DegOut: 0.5, Seed: 3})
	res := must(Detector{}.Detect(g, engine.Options{}))
	if nmi := quality.NMI(res.Labels, truth); nmi < 0.85 {
		t.Errorf("NMI = %.3f, want >= 0.85", nmi)
	}
	if q := quality.Modularity(g, res.Labels); q < 0.5 {
		t.Errorf("Q = %.3f", q)
	}
}

func TestQueueDrains(t *testing.T) {
	g := gen.ErdosRenyi(500, 2000, 7)
	res := must(Detector{}.Detect(g, engine.Options{}))
	// Queue pops are the records' active-vertex counts.
	steps := telemetry.Sum(res.Trace).ActiveVertices
	if steps == 0 {
		t.Fatal("no work performed")
	}
	// Queue-based processing should touch each vertex O(1) times on
	// average for sparse graphs; allow a generous factor.
	if steps > int64(50*g.NumVertices()) {
		t.Errorf("steps = %d, suspiciously many for %d vertices", steps, g.NumVertices())
	}
}

func TestTwoCliquesMerge(t *testing.T) {
	g, truth := gen.Planted(gen.PlantedConfig{N: 40, Communities: 2, DegIn: 12, DegOut: 0.2, Seed: 5})
	res := must(Detector{}.Detect(g, engine.Options{}))
	if nmi := quality.NMI(res.Labels, truth); nmi < 0.9 {
		t.Errorf("NMI = %.3f", nmi)
	}
}

func TestIsolatedVertices(t *testing.T) {
	g := gen.Star(5) // vertices 0..4; plus make some isolated via larger n
	res := must(Detector{}.Detect(g, engine.Options{}))
	if c := quality.CountCommunities(res.Labels); c != 1 {
		t.Errorf("star communities = %d, want 1", c)
	}
}

func TestDeterministicForSeed(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(9, 8, 4))
	a := must(Detector{}.Detect(g, engine.Options{Seed: 42}))
	b := must(Detector{}.Detect(g, engine.Options{Seed: 42}))
	for i := range a.Labels {
		if a.Labels[i] != b.Labels[i] {
			t.Fatal("same seed produced different labels")
		}
	}
}

func TestLabelsValid(t *testing.T) {
	g := gen.Web(gen.DefaultWeb(800, 6, 9))
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
