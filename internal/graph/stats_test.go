package graph

import (
	"testing"
	"testing/quick"
)

func TestComputeStatsTriangle(t *testing.T) {
	g := triangle(t)
	s := ComputeStats(g)
	if s.NumVertices != 3 || s.NumArcs != 6 {
		t.Errorf("stats sizes = %d/%d, want 3/6", s.NumVertices, s.NumArcs)
	}
	if s.MaxDegree != 2 || s.MinDegree != 2 {
		t.Errorf("degrees = %d..%d, want 2..2", s.MinDegree, s.MaxDegree)
	}
	if s.AvgDegree != 2 {
		t.Errorf("AvgDegree = %g, want 2", s.AvgDegree)
	}
	if s.Isolated != 0 {
		t.Errorf("Isolated = %d, want 0", s.Isolated)
	}
	if s.String() == "" {
		t.Error("empty String()")
	}
}

func TestComputeStatsEmpty(t *testing.T) {
	g, _ := FromEdges(nil, 0, DefaultBuildOptions())
	s := ComputeStats(g)
	if s.NumVertices != 0 || s.MaxDegree != 0 || s.MinDegree != 0 {
		t.Errorf("unexpected stats for empty graph: %+v", s)
	}
}

func TestComputeStatsIsolated(t *testing.T) {
	g, _ := FromEdges([]Edge{{0, 1, 1}}, 5, DefaultBuildOptions())
	s := ComputeStats(g)
	if s.Isolated != 3 {
		t.Errorf("Isolated = %d, want 3", s.Isolated)
	}
	if s.MinDegree != 0 {
		t.Errorf("MinDegree = %d, want 0", s.MinDegree)
	}
}

func TestConnectedComponents(t *testing.T) {
	// Two triangles plus an isolated vertex.
	edges := []Edge{{0, 1, 1}, {1, 2, 1}, {0, 2, 1}, {3, 4, 1}, {4, 5, 1}, {3, 5, 1}}
	g, _ := FromEdges(edges, 7, DefaultBuildOptions())
	comp, count := ConnectedComponents(g)
	if count != 3 {
		t.Fatalf("count = %d, want 3", count)
	}
	if comp[0] != comp[1] || comp[1] != comp[2] {
		t.Error("first triangle split across components")
	}
	if comp[3] != comp[4] || comp[4] != comp[5] {
		t.Error("second triangle split across components")
	}
	if comp[0] == comp[3] || comp[0] == comp[6] || comp[3] == comp[6] {
		t.Error("distinct components share a label")
	}
}

func TestConnectedComponentsPath(t *testing.T) {
	edges := []Edge{{0, 1, 1}, {1, 2, 1}, {2, 3, 1}}
	g, _ := FromEdges(edges, 4, DefaultBuildOptions())
	_, count := ConnectedComponents(g)
	if count != 1 {
		t.Errorf("count = %d, want 1", count)
	}
}

// Property: for any random graph, component labels are a partition — every
// vertex gets a label < count, and adjacent vertices share a label.
func TestComponentsPartitionProperty(t *testing.T) {
	f := func(seed int64) bool {
		if seed < 0 {
			seed = -seed
		}
		g := randomGraph(t, 30+int(seed%20), 50, seed)
		comp, count := ConnectedComponents(g)
		for v, c := range comp {
			if int(c) >= count {
				return false
			}
			ts, _ := g.Neighbors(Vertex(v))
			for _, u := range ts {
				if comp[u] != c {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
