package graph_test

import (
	"path/filepath"
	"slices"
	"testing"

	"nulpa/internal/gen"
	"nulpa/internal/graph"
)

// TestEdgeListKeepsIsolatedVertices round-trips an R-MAT graph with
// trailing isolated vertices (the 500-vertex request rounds up to 512, and
// the highest ids have no edges) through an edge-list file: the header's
// vertex count brings every vertex back, not only those up to the largest
// id an edge names.
func TestEdgeListKeepsIsolatedVertices(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(9, 2, 1))
	last := graph.Vertex(g.NumVertices() - 1)
	if g.Degree(last) != 0 {
		t.Fatalf("vertex %d has degree %d: no trailing isolated vertex to lose", last, g.Degree(last))
	}
	p := filepath.Join(t.TempDir(), "rmat.txt")
	if err := graph.WriteFile(p, g); err != nil {
		t.Fatal(err)
	}
	back, err := graph.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumVertices() != g.NumVertices() {
		t.Fatalf("|V| %d read back as %d", g.NumVertices(), back.NumVertices())
	}
	if !slices.Equal(back.Offsets, g.Offsets) || !slices.Equal(back.Targets, g.Targets) || !slices.Equal(back.Weights, g.Weights) {
		t.Error("edge list round trip changed the graph")
	}
}
