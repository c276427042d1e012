package variants

import (
	"math/rand"
	"testing"

	"nulpa/internal/engine"
	"nulpa/internal/gen"
	"nulpa/internal/quality"
)

func TestSLPAPlantedRecovery(t *testing.T) {
	g, truth := gen.Planted(gen.PlantedConfig{N: 300, Communities: 6, DegIn: 14, DegOut: 0.5, Seed: 3})
	res := must(slpaDetector{}.Detect(g, engine.Options{}))
	if nmi := quality.NMI(res.Labels, truth); nmi < 0.8 {
		t.Errorf("SLPA NMI = %.3f", nmi)
	}
	if res.Iterations != slpaRounds {
		t.Errorf("iterations = %d", res.Iterations)
	}
}

func TestSLPAMemoryGrows(t *testing.T) {
	g := gen.Cycle(12)
	opt := engine.Options{MaxIterations: 10, Seed: 2}
	res := must(slpaDetector{}.Detect(g, opt)).Extra.(*SLPAResult)
	for v, mem := range res.Memory {
		total := 0
		for _, c := range mem {
			total += c
		}
		// Initial entry + one per iteration.
		if total != 1+opt.MaxIterations {
			t.Fatalf("vertex %d memory size %d, want %d", v, total, 1+opt.MaxIterations)
		}
	}
}

func TestSLPAOverlapThreshold(t *testing.T) {
	g, _ := gen.Planted(gen.PlantedConfig{N: 100, Communities: 2, DegIn: 10, DegOut: 1, Seed: 5})
	res := must(slpaDetector{}.Detect(g, engine.Options{})).Extra.(*SLPAResult)
	over := res.OverlapThreshold(0.2)
	if len(over) != 100 {
		t.Fatalf("overlap sets = %d", len(over))
	}
	for v, ls := range over {
		if len(ls) == 0 {
			t.Fatalf("vertex %d has no labels", v)
		}
		// The dominant label must be included.
		found := false
		for _, l := range ls {
			if l == res.Labels[v] {
				found = true
			}
		}
		if !found {
			t.Fatalf("vertex %d overlap set missing dominant label", v)
		}
	}
	// A very high threshold keeps only dominant labels.
	tight := res.OverlapThreshold(0.99)
	for v, ls := range tight {
		if len(ls) > 1 {
			t.Fatalf("vertex %d kept %d labels at 0.99 threshold", v, len(ls))
		}
	}
}

func TestSLPADeterministicForSeed(t *testing.T) {
	g, _ := gen.Planted(gen.PlantedConfig{N: 120, Communities: 3, DegIn: 8, DegOut: 1, Seed: 7})
	a := must(slpaDetector{}.Detect(g, engine.Options{MaxIterations: 15, Seed: 9}))
	b := must(slpaDetector{}.Detect(g, engine.Options{MaxIterations: 15, Seed: 9}))
	for i := range a.Labels {
		if a.Labels[i] != b.Labels[i] {
			t.Fatal("same seed produced different labels")
		}
	}
	c := must(slpaDetector{}.Detect(g, engine.Options{MaxIterations: 15, Seed: 10}))
	same := true
	for i := range a.Labels {
		if a.Labels[i] != c.Labels[i] {
			same = false
			break
		}
	}
	if same {
		t.Log("note: different seeds produced identical labels (possible on easy graphs)")
	}
}

func TestCOPRAPlantedRecovery(t *testing.T) {
	g, truth := gen.Planted(gen.PlantedConfig{N: 300, Communities: 6, DegIn: 14, DegOut: 0.5, Seed: 3})
	res := must(copraDetector{}.Detect(g, engine.Options{}))
	if nmi := quality.NMI(res.Labels, truth); nmi < 0.8 {
		t.Errorf("COPRA NMI = %.3f", nmi)
	}
}

func TestCOPRABelongingNormalized(t *testing.T) {
	g, _ := gen.Planted(gen.PlantedConfig{N: 150, Communities: 3, DegIn: 10, DegOut: 1, Seed: 5})
	res := must(copraDetector{}.Detect(g, engine.Options{MaxIterations: 10})).Extra.(*COPRAResult)
	for v, b := range res.Belonging {
		if len(b) == 0 || len(b) > 3 {
			t.Fatalf("vertex %d has %d labels, want 1..3", v, len(b))
		}
		var sum float64
		for _, c := range b {
			sum += c
		}
		if sum < 0.999 || sum > 1.001 {
			t.Fatalf("vertex %d coefficients sum to %g", v, sum)
		}
	}
}

func TestCOPRAIsolatedVertex(t *testing.T) {
	g := gen.MatchedPairs(6) // then vertex indices 0..5 all paired
	res := must(copraDetector{}.Detect(g, engine.Options{}))
	for v := 0; v+1 < 6; v += 2 {
		if res.Labels[v] != res.Labels[v+1] {
			t.Errorf("pair (%d,%d) not merged", v, v+1)
		}
	}
}

func TestFilterBelonging(t *testing.T) {
	b := map[uint32]float64{1: 0.5, 2: 0.3, 3: 0.15, 4: 0.05}
	filterBelonging(b, 0.25, 2, 9)
	if len(b) != 2 {
		t.Fatalf("kept %d labels, want 2", len(b))
	}
	if _, ok := b[1]; !ok {
		t.Error("strongest label dropped")
	}
	var sum float64
	for _, c := range b {
		sum += c
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("sum = %g", sum)
	}
	// All-below-threshold keeps the strongest.
	b2 := map[uint32]float64{7: 0.4, 8: 0.6}
	filterBelonging(b2, 0.9, 2, 0)
	if len(b2) != 1 || b2[8] != 1 {
		t.Errorf("fallback kept %v", b2)
	}
}

func TestLabelRankPlantedRecovery(t *testing.T) {
	g, truth := gen.Planted(gen.PlantedConfig{N: 300, Communities: 6, DegIn: 14, DegOut: 0.5, Seed: 3})
	res := must(labelRankDetector{}.Detect(g, engine.Options{}))
	if nmi := quality.NMI(res.Labels, truth); nmi < 0.8 {
		t.Errorf("LabelRank NMI = %.3f", nmi)
	}
}

func TestLabelRankDeterministic(t *testing.T) {
	g, _ := gen.Planted(gen.PlantedConfig{N: 200, Communities: 4, DegIn: 10, DegOut: 1, Seed: 8})
	a := must(labelRankDetector{}.Detect(g, engine.Options{}))
	b := must(labelRankDetector{}.Detect(g, engine.Options{}))
	for i := range a.Labels {
		if a.Labels[i] != b.Labels[i] {
			t.Fatal("LabelRank not deterministic")
		}
	}
}

func TestLabelRankConvergesOnCliques(t *testing.T) {
	g, _ := gen.Planted(gen.PlantedConfig{N: 60, Communities: 2, DegIn: 20, DegOut: 0, Seed: 2})
	res := must(labelRankDetector{}.Detect(g, engine.Options{}))
	if !res.Converged {
		t.Errorf("did not converge in %d iterations", res.Iterations)
	}
	if c := quality.CountCommunities(res.Labels); c < 2 {
		t.Errorf("communities = %d", c)
	}
}

func TestDominantLabel(t *testing.T) {
	if d := dominantLabel(map[uint32]float64{}, 7); d != 7 {
		t.Errorf("empty dominant = %d", d)
	}
	if d := dominantLabel(map[uint32]float64{3: 0.5, 1: 0.5}, 0); d != 1 {
		t.Errorf("tie dominant = %d, want 1", d)
	}
}

func TestVariantsOnNoisyGraphAllReasonable(t *testing.T) {
	g, truth := gen.Planted(gen.PlantedConfig{N: 400, Communities: 8, DegIn: 12, DegOut: 2, Seed: 11})
	for name, labels := range map[string][]uint32{
		"slpa":      must(slpaDetector{}.Detect(g, engine.Options{})).Labels,
		"copra":     must(copraDetector{}.Detect(g, engine.Options{})).Labels,
		"labelrank": must(labelRankDetector{}.Detect(g, engine.Options{})).Labels,
	} {
		if nmi := quality.NMI(labels, truth); nmi < 0.5 {
			t.Errorf("%s: NMI = %.3f on noisy planted graph", name, nmi)
		}
	}
}

func TestSpeakDistribution(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	mem := map[uint32]int{1: 9, 2: 1}
	counts := map[uint32]int{}
	var scratch []uint32
	for i := 0; i < 2000; i++ {
		counts[speak(rng, mem, 10, &scratch)]++
	}
	if counts[1] < 1500 || counts[2] < 50 {
		t.Errorf("speak distribution off: %v", counts)
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
