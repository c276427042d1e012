package quality

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"nulpa/internal/gen"
)

func TestARIIdentical(t *testing.T) {
	a := []uint32{0, 0, 1, 1, 2, 2}
	if ari := ARI(a, a); math.Abs(ari-1) > 1e-12 {
		t.Errorf("ARI(a,a) = %v", ari)
	}
	b := []uint32{9, 9, 5, 5, 1, 1} // relabeled
	if ari := ARI(a, b); math.Abs(ari-1) > 1e-12 {
		t.Errorf("ARI relabeled = %v", ari)
	}
}

func TestARIIndependent(t *testing.T) {
	n := 2000
	a := make([]uint32, n)
	b := make([]uint32, n)
	rng := rand.New(rand.NewSource(1))
	for i := range a {
		a[i] = uint32(rng.Intn(4))
		b[i] = uint32(rng.Intn(4))
	}
	if ari := ARI(a, b); math.Abs(ari) > 0.05 {
		t.Errorf("ARI independent = %v, want ~0", ari)
	}
}

func TestARITrivial(t *testing.T) {
	a := []uint32{3, 3, 3}
	if ari := ARI(a, a); ari != 1 {
		t.Errorf("ARI trivial = %v", ari)
	}
	if ari := ARI(nil, nil); ari != 1 {
		t.Errorf("ARI empty = %v", ari)
	}
}

func TestARISymmetricAndBounded(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 10 + rng.Intn(60)
		a := make([]uint32, n)
		b := make([]uint32, n)
		for i := range a {
			a[i] = uint32(rng.Intn(5))
			b[i] = uint32(rng.Intn(5))
		}
		x, y := ARI(a, b), ARI(b, a)
		return math.Abs(x-y) < 1e-12 && x <= 1+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestARIMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	ARI([]uint32{0}, []uint32{0, 1})
}

func TestCoverage(t *testing.T) {
	g := twoCliques(t)
	all := make([]uint32, 8) // one community: coverage 1
	if c := Coverage(g, all); math.Abs(c-1) > 1e-12 {
		t.Errorf("coverage single = %v", c)
	}
	split := []uint32{0, 0, 0, 0, 1, 1, 1, 1} // cut = 1 edge of 13
	want := 12.0 / 13.0
	if c := Coverage(g, split); math.Abs(c-want) > 1e-12 {
		t.Errorf("coverage split = %v, want %v", c, want)
	}
	singles := []uint32{0, 1, 2, 3, 4, 5, 6, 7}
	if c := Coverage(g, singles); c != 0 {
		t.Errorf("coverage singletons = %v", c)
	}
}

func TestCoverageEmptyGraph(t *testing.T) {
	g := mustGraph(t, nil, 2)
	if c := Coverage(g, []uint32{0, 1}); c != 1 {
		t.Errorf("coverage of edgeless graph = %v", c)
	}
}

func TestEdgeCut(t *testing.T) {
	g := twoCliques(t)
	split := []uint32{0, 0, 0, 0, 1, 1, 1, 1}
	w, frac := EdgeCut(g, split)
	if w != 2 { // one undirected edge = two arcs
		t.Errorf("cut weight = %v, want 2", w)
	}
	if math.Abs(frac-2.0/26.0) > 1e-12 {
		t.Errorf("cut fraction = %v", frac)
	}
	if w, _ := EdgeCut(g, make([]uint32, 8)); w != 0 {
		t.Errorf("cut of single community = %v", w)
	}
}

// Property: better partitions (planted truth) have higher coverage than
// random partitions of the same granularity.
func TestMetricsOrderPlantedVsRandom(t *testing.T) {
	g, truth := gen.Planted(gen.PlantedConfig{N: 300, Communities: 6, DegIn: 12, DegOut: 1, Seed: 3})
	rng := rand.New(rand.NewSource(4))
	random := make([]uint32, len(truth))
	for i := range random {
		random[i] = uint32(rng.Intn(6))
	}
	if Coverage(g, truth) <= Coverage(g, random) {
		t.Error("planted coverage not above random")
	}
	if ARI(truth, truth) <= ARI(truth, random) {
		t.Error("ARI ordering broken")
	}
}
