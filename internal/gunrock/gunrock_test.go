package gunrock

import (
	"testing"

	"nulpa/internal/engine"
	"nulpa/internal/gen"
	"nulpa/internal/quality"
)

func TestPlantedStructureFound(t *testing.T) {
	// Synchronous LPA still finds well-separated communities.
	g, truth := gen.Planted(gen.PlantedConfig{N: 400, Communities: 8, DegIn: 14, DegOut: 0.5, Seed: 3})
	res := must(Detector{}.Detect(g, engine.Options{}))
	if nmi := quality.NMI(res.Labels, truth); nmi < 0.6 {
		t.Errorf("NMI = %.3f, want >= 0.6", nmi)
	}
}

// TestOscillatesOnBipartite reproduces why Gunrock-style synchronous LPA
// yields very low modularity in the paper: on symmetric structures the two
// sides exchange labels every iteration and never settle.
func TestOscillatesOnBipartite(t *testing.T) {
	g := gen.CompleteBipartite(16, 16)
	res := must(Detector{}.Detect(g, engine.Options{}))
	if res.Converged {
		t.Error("synchronous LPA converged on K(16,16); expected oscillation")
	}
	if res.Iterations != defaultMaxIterations {
		t.Errorf("iterations = %d, want the full budget", res.Iterations)
	}
}

func TestMatchedPairsOscillate(t *testing.T) {
	g := gen.MatchedPairs(100)
	res := must(Detector{}.Detect(g, engine.Options{}))
	if res.Converged {
		t.Error("synchronous LPA converged on matched pairs; expected swaps")
	}
	// Every vertex carries its partner's original label or its own —
	// depending on iteration parity — and modularity is that of singletons.
	if q := quality.Modularity(g, res.Labels); q > 0 {
		t.Errorf("oscillating labels gave Q = %.3f, expected <= 0", q)
	}
}

func TestStarConverges(t *testing.T) {
	g := gen.Star(50)
	res := must(Detector{}.Detect(g, engine.Options{}))
	// Hub adopts the smallest leaf label; leaves adopt the hub's label;
	// eventually all agree (star is asymmetric enough).
	if c := quality.CountCommunities(res.Labels); c > 2 {
		t.Errorf("star communities = %d", c)
	}
}

func TestLabelsValidAndBudget(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(9, 6, 7))
	res := must(Detector{}.Detect(g, engine.Options{MaxIterations: 3}))
	if res.Iterations > 3 {
		t.Errorf("iterations = %d", res.Iterations)
	}
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
