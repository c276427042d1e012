package plp

import (
	"math"
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
}

func TestSingleWorkerMatchesQuality(t *testing.T) {
	g, truth := gen.Planted(gen.PlantedConfig{N: 300, Communities: 6, DegIn: 12, DegOut: 0.5, Seed: 6})
	res := must(Detector{}.Detect(g, engine.Options{Workers: 1}))
	if nmi := quality.NMI(res.Labels, truth); nmi < 0.85 {
		t.Errorf("workers=1: NMI = %.3f", nmi)
	}
}

func TestToleranceStopsEarly(t *testing.T) {
	g := gen.Web(gen.DefaultWeb(1500, 8, 11))
	loose := must(Detector{}.Detect(g, engine.Options{Tolerance: 0.5, MaxIterations: 100}))
	tight := must(Detector{}.Detect(g, engine.Options{Tolerance: 1e-6, MaxIterations: 100}))
	if loose.Iterations > tight.Iterations {
		t.Errorf("loose tolerance ran longer (%d) than tight (%d)", loose.Iterations, tight.Iterations)
	}
	if !loose.Converged {
		t.Error("loose tolerance did not converge")
	}
}

func TestMaxIterationsRespected(t *testing.T) {
	g := gen.ErdosRenyi(400, 1600, 8)
	// The smallest positive tolerance: θ·N floors at one vertex, so only the
	// iteration cap can end the run early.
	res := must(Detector{}.Detect(g, engine.Options{Tolerance: math.SmallestNonzeroFloat64, MaxIterations: 3}))
	if res.Iterations > 3 {
		t.Errorf("iterations = %d, want <= 3", res.Iterations)
	}
}

func TestLabelsValid(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(9, 6, 5))
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
	if len(res.Labels) != 0 || !res.Converged {
		t.Errorf("empty graph: %+v", res)
	}
}

func TestIsolatedVerticesStable(t *testing.T) {
	g := gen.MatchedPairs(10) // 5 pairs
	res := must(Detector{}.Detect(g, engine.Options{}))
	for v := 0; v+1 < 10; v += 2 {
		if res.Labels[v] != res.Labels[v+1] {
			t.Errorf("pair (%d,%d) not merged", v, v+1)
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
