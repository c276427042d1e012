package graph

import (
	"math/rand"
	"testing"
)

// triangle returns the unweighted triangle 0-1-2.
func triangle(t *testing.T) *CSR {
	t.Helper()
	g, err := FromEdges([]Edge{{0, 1, 1}, {1, 2, 1}, {0, 2, 1}}, 3, DefaultBuildOptions())
	if err != nil {
		t.Fatalf("FromEdges: %v", err)
	}
	return g
}

func TestEmptyGraph(t *testing.T) {
	g, err := FromEdges(nil, 0, DefaultBuildOptions())
	if err != nil {
		t.Fatalf("FromEdges: %v", err)
	}
	if g.NumVertices() != 0 || g.NumArcs() != 0 || g.NumEdges() != 0 {
		t.Errorf("empty graph has n=%d arcs=%d edges=%d", g.NumVertices(), g.NumArcs(), g.NumEdges())
	}
	if err := g.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestIsolatedVertices(t *testing.T) {
	g, err := FromEdges([]Edge{{0, 4, 1}}, 10, DefaultBuildOptions())
	if err != nil {
		t.Fatalf("FromEdges: %v", err)
	}
	if g.NumVertices() != 10 {
		t.Fatalf("NumVertices = %d, want 10", g.NumVertices())
	}
	if g.NumArcs() != 2 {
		t.Fatalf("NumArcs = %d, want 2", g.NumArcs())
	}
	for i := 1; i < 10; i++ {
		if i == 4 {
			continue
		}
		if d := g.Degree(Vertex(i)); d != 0 {
			t.Errorf("Degree(%d) = %d, want 0", i, d)
		}
	}
}

func TestTriangleBasics(t *testing.T) {
	g := triangle(t)
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if g.NumVertices() != 3 {
		t.Errorf("NumVertices = %d, want 3", g.NumVertices())
	}
	if g.NumArcs() != 6 {
		t.Errorf("NumArcs = %d, want 6", g.NumArcs())
	}
	if g.NumEdges() != 3 {
		t.Errorf("NumEdges = %d, want 3", g.NumEdges())
	}
	for i := Vertex(0); i < 3; i++ {
		if d := g.Degree(i); d != 2 {
			t.Errorf("Degree(%d) = %d, want 2", i, d)
		}
		if k := g.WeightedDegree(i); k != 2 {
			t.Errorf("WeightedDegree(%d) = %g, want 2", i, k)
		}
	}
	if tw := g.TotalWeight(); tw != 6 {
		t.Errorf("TotalWeight = %g, want 6", tw)
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Error("missing edge 0-1")
	}
	if g.HasEdge(0, 0) {
		t.Error("unexpected self loop")
	}
}

func TestEdgeWeight(t *testing.T) {
	g, err := FromEdges([]Edge{{0, 1, 2.5}, {1, 2, 0.5}}, 3, DefaultBuildOptions())
	if err != nil {
		t.Fatalf("FromEdges: %v", err)
	}
	if w, ok := g.EdgeWeight(0, 1); !ok || w != 2.5 {
		t.Errorf("EdgeWeight(0,1) = %g,%v want 2.5,true", w, ok)
	}
	if w, ok := g.EdgeWeight(1, 0); !ok || w != 2.5 {
		t.Errorf("EdgeWeight(1,0) = %g,%v want 2.5,true (symmetric)", w, ok)
	}
	if _, ok := g.EdgeWeight(0, 2); ok {
		t.Error("EdgeWeight(0,2) found nonexistent edge")
	}
}

func TestSelfLoopDropped(t *testing.T) {
	g, err := FromEdges([]Edge{{0, 0, 1}, {0, 1, 1}}, 2, DefaultBuildOptions())
	if err != nil {
		t.Fatalf("FromEdges: %v", err)
	}
	if g.NumArcs() != 2 {
		t.Errorf("NumArcs = %d, want 2 (self loop dropped)", g.NumArcs())
	}
}

func TestSelfLoopKept(t *testing.T) {
	opt := BuildOptions{Symmetrize: true, DropSelfLoops: false, SumDuplicates: true}
	g, err := FromEdges([]Edge{{0, 0, 3}, {0, 1, 1}}, 2, opt)
	if err != nil {
		t.Fatalf("FromEdges: %v", err)
	}
	if g.NumArcs() != 3 {
		t.Errorf("NumArcs = %d, want 3 (self loop stored once)", g.NumArcs())
	}
	if w, ok := g.EdgeWeight(0, 0); !ok || w != 3 {
		t.Errorf("EdgeWeight(0,0) = %g,%v want 3,true", w, ok)
	}
	if err := g.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestDuplicateEdgesSummed(t *testing.T) {
	g, err := FromEdges([]Edge{{0, 1, 1}, {0, 1, 2}, {1, 0, 4}}, 2, DefaultBuildOptions())
	if err != nil {
		t.Fatalf("FromEdges: %v", err)
	}
	if g.NumArcs() != 2 {
		t.Fatalf("NumArcs = %d, want 2", g.NumArcs())
	}
	if w, _ := g.EdgeWeight(0, 1); w != 7 {
		t.Errorf("EdgeWeight(0,1) = %g, want 7 (1+2+4 merged)", w)
	}
}

func TestDuplicateEdgesKept(t *testing.T) {
	opt := BuildOptions{Symmetrize: true, DropSelfLoops: true, SumDuplicates: false}
	g, err := FromEdges([]Edge{{0, 1, 1}, {0, 1, 2}}, 2, opt)
	if err != nil {
		t.Fatalf("FromEdges: %v", err)
	}
	if g.NumArcs() != 4 {
		t.Errorf("NumArcs = %d, want 4 (duplicates kept)", g.NumArcs())
	}
}

func TestOutOfRangeEdge(t *testing.T) {
	if _, err := FromEdges([]Edge{{0, 5, 1}}, 3, DefaultBuildOptions()); err == nil {
		t.Error("FromEdges accepted out-of-range target")
	}
}

func TestNoSymmetrize(t *testing.T) {
	opt := BuildOptions{Symmetrize: false, DropSelfLoops: true, SumDuplicates: true}
	g, err := FromEdges([]Edge{{0, 1, 1}}, 2, opt)
	if err != nil {
		t.Fatalf("FromEdges: %v", err)
	}
	if g.NumArcs() != 1 {
		t.Errorf("NumArcs = %d, want 1", g.NumArcs())
	}
	if err := g.Validate(); err == nil {
		t.Error("Validate accepted asymmetric graph")
	}
}

func TestClone(t *testing.T) {
	g := triangle(t)
	c := g.Clone()
	c.Weights[0] = 99
	if g.Weights[0] == 99 {
		t.Error("Clone shares weight storage")
	}
	if c.TotalWeight() != g.TotalWeight() {
		t.Error("Clone lost cached total weight")
	}
}

func TestValidateCatchesBadOffsets(t *testing.T) {
	g := triangle(t)
	g.Offsets[1] = 100
	if err := g.Validate(); err == nil {
		t.Error("Validate accepted corrupt offsets")
	}
}

func TestValidateCatchesUnsorted(t *testing.T) {
	g := triangle(t)
	ts, _ := g.Neighbors(0)
	if len(ts) == 2 {
		ts[0], ts[1] = ts[1], ts[0]
	}
	if err := g.Validate(); err == nil {
		t.Error("Validate accepted unsorted adjacency")
	}
}

func TestValidateCatchesWeightAsymmetry(t *testing.T) {
	g := triangle(t)
	g.Weights[0] = 42
	if err := g.Validate(); err == nil {
		t.Error("Validate accepted asymmetric weights")
	}
}

// TestRandomGraphInvariants builds random graphs and checks structural
// invariants hold after construction.
func TestRandomGraphInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 25; trial++ {
		n := 1 + rng.Intn(60)
		m := rng.Intn(4 * n)
		edges := make([]Edge, m)
		for i := range edges {
			edges[i] = Edge{
				U: Vertex(rng.Intn(n)),
				V: Vertex(rng.Intn(n)),
				W: float32(rng.Intn(5) + 1),
			}
		}
		g, err := FromEdges(edges, n, DefaultBuildOptions())
		if err != nil {
			t.Fatalf("trial %d: FromEdges: %v", trial, err)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("trial %d: Validate: %v", trial, err)
		}
		// Total degree equals arc count.
		var dsum int64
		for i := 0; i < n; i++ {
			dsum += int64(g.Degree(Vertex(i)))
		}
		if dsum != g.NumArcs() {
			t.Fatalf("trial %d: degree sum %d != arcs %d", trial, dsum, g.NumArcs())
		}
	}
}

// BenchmarkBuildFromEdges assembles random multigraphs of 8, 16 and 4
// edges per vertex: the 10k case is below the parallel threshold and runs on
// one worker, the 65k one (about the social benchmark graph's size) on up to
// GOMAXPROCS. The 400k case's offsets and histograms alone exceed a 2 MiB
// L2, so its per-row scatter misses cache where the smaller ones hit.
func BenchmarkBuildFromEdges(b *testing.B) {
	for _, c := range []struct {
		name   string
		n, deg int
	}{{"n=10k", 10000, 8}, {"n=65k", 65536, 16}, {"n=400k", 400000, 4}} {
		rng := rand.New(rand.NewSource(1))
		edges := make([]Edge, c.deg*c.n)
		for i := range edges {
			edges[i] = Edge{Vertex(rng.Intn(c.n)), Vertex(rng.Intn(c.n)), 1}
		}
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := FromEdges(edges, c.n, DefaultBuildOptions()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func TestMaxVerticesGuard(t *testing.T) {
	if _, err := FromEdges(nil, MaxVertices+1, DefaultBuildOptions()); err == nil {
		t.Error("accepted vertex count above MaxVertices")
	}
	// The reserved sentinel id is rejected even when n is huge enough.
	old := MaxVertices
	MaxVertices = 1 << 30
	defer func() { MaxVertices = old }()
	b := NewBuilder(1)
	b.AddEdge(NoVertex, 0, 1)
	if _, err := b.Build(0, DefaultBuildOptions()); err == nil {
		t.Error("accepted the sentinel vertex id")
	}
}
