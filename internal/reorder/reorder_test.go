package reorder

import (
	"math/rand"
	"testing"

	"nulpa/internal/engine"
	"nulpa/internal/flpa"
	"nulpa/internal/gen"
	"nulpa/internal/graph"
	"nulpa/internal/quality"
)

// TestIdentity: Apply under the identity permutation leaves the graph
// unchanged.
func TestIdentity(t *testing.T) {
	p := fromOrder([]graph.Vertex{0, 1, 2, 3, 4})
	g := gen.Cycle(5)
	out, err := Apply(g, p)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 5; v++ {
		ta, _ := g.Neighbors(graph.Vertex(v))
		tb, _ := out.Neighbors(graph.Vertex(v))
		for k := range ta {
			if ta[k] != tb[k] {
				t.Fatal("identity permutation changed the graph")
			}
		}
	}
}

func TestApplyPreservesStructure(t *testing.T) {
	g := gen.Web(gen.DefaultWeb(500, 6, 3))
	labels := must(flpa.Detector{}.Detect(g, engine.Options{})).Labels
	p := ByCommunity(labels)
	out, err := Apply(g, p)
	if err != nil {
		t.Fatal(err)
	}
	if err := out.Validate(); err != nil {
		t.Fatalf("reordered graph invalid: %v", err)
	}
	if out.NumArcs() != g.NumArcs() || out.NumVertices() != g.NumVertices() {
		t.Fatal("size changed")
	}
	// Isomorphism spot-check: edges map through the permutation.
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		u := graph.Vertex(rng.Intn(g.NumVertices()))
		ts, ws := g.Neighbors(u)
		if len(ts) == 0 {
			continue
		}
		k := rng.Intn(len(ts))
		v := ts[k]
		w, ok := out.EdgeWeight(p.NewID[u], p.NewID[v])
		if !ok || w != ws[k] {
			t.Fatalf("edge (%d,%d) lost or reweighted under permutation", u, v)
		}
	}
	// Total weight preserved.
	if out.TotalWeight() != g.TotalWeight() {
		t.Error("total weight changed")
	}
}

func TestByCommunityGroupsContiguously(t *testing.T) {
	labels := []uint32{5, 2, 5, 2, 9, 9, 2}
	p := ByCommunity(labels)
	// Walk new ids in order; community changes must never revisit one.
	seen := map[uint32]bool{}
	var last uint32 = ^uint32(0)
	for newV := 0; newV < len(labels); newV++ {
		c := labels[p.OldID[newV]]
		if c != last {
			if seen[c] {
				t.Fatalf("community %d split in new ordering", c)
			}
			seen[c] = true
			last = c
		}
	}
}

// TestMapLabelsRoundTrip detects on a renumbered graph and maps the labels
// back through the permutation, vertex ids and label values alike.
func TestMapLabelsRoundTrip(t *testing.T) {
	g, truth := gen.Planted(gen.PlantedConfig{N: 200, Communities: 4, DegIn: 10, DegOut: 0.5, Seed: 6})
	order := make([]graph.Vertex, g.NumVertices())
	for i := range order {
		order[i] = graph.Vertex(len(order) - 1 - i)
	}
	p := fromOrder(order)
	rg, err := Apply(g, p)
	if err != nil {
		t.Fatal(err)
	}
	res := must(flpa.Detector{}.Detect(rg, engine.Options{}))
	back := make([]uint32, len(res.Labels))
	for newV, l := range res.Labels {
		back[p.OldID[newV]] = uint32(p.OldID[l])
	}
	// The partition on original numbering must match the planted structure
	// as well as detection on the original graph does.
	if nmi := quality.NMI(back, truth); nmi < 0.85 {
		t.Errorf("mapped labels NMI = %.3f", nmi)
	}
	// And modularity must be identical computed either way.
	qr := quality.Modularity(rg, res.Labels)
	qo := quality.Modularity(g, back)
	if diff := qr - qo; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("modularity changed across mapping: %v vs %v", qr, qo)
	}
}

func TestGapCostImprovesWithCommunityOrder(t *testing.T) {
	// Scramble a planted graph's ids, then recover locality by community
	// reordering.
	g, truth := gen.Planted(gen.PlantedConfig{N: 600, Communities: 12, DegIn: 10, DegOut: 0.5, Seed: 4})
	rng := rand.New(rand.NewSource(2))
	scramble := Permutation{NewID: make([]graph.Vertex, 600), OldID: make([]graph.Vertex, 600)}
	perm := rng.Perm(600)
	for old, newID := range perm {
		scramble.NewID[old] = graph.Vertex(newID)
		scramble.OldID[newID] = graph.Vertex(old)
	}
	scrambled, err := Apply(g, scramble)
	if err != nil {
		t.Fatal(err)
	}
	// Truth labels in scrambled numbering.
	scrambledTruth := make([]uint32, 600)
	for newV := 0; newV < 600; newV++ {
		scrambledTruth[newV] = truth[scramble.OldID[newV]]
	}
	before := GapCost(scrambled)
	ordered, err := Apply(scrambled, ByCommunity(scrambledTruth))
	if err != nil {
		t.Fatal(err)
	}
	after := GapCost(ordered)
	if after >= before {
		t.Errorf("community reorder did not improve locality: %.1f -> %.1f", before, after)
	}
}

func TestApplySizeMismatch(t *testing.T) {
	g := gen.Cycle(5)
	if _, err := Apply(g, fromOrder([]graph.Vertex{0, 1, 2, 3})); err == nil {
		t.Error("size mismatch accepted")
	}
}

func TestGapCostEmpty(t *testing.T) {
	g := gen.MatchedPairs(0)
	if GapCost(g) != 0 {
		t.Error("empty gap cost nonzero")
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
