package graph

import "fmt"

// Stats summarizes the structural properties reported in the paper's dataset
// table (Table 1): vertex count, edge count, and average degree, plus extras
// useful when validating generators.
type Stats struct {
	NumVertices int
	NumArcs     int64
	AvgDegree   float64
	MaxDegree   int
	MinDegree   int
	TotalWeight float64
	Isolated    int // vertices with degree 0
}

// ComputeStats scans g once and returns its summary statistics.
func ComputeStats(g *CSR) Stats {
	s := Stats{
		NumVertices: g.NumVertices(),
		NumArcs:     g.NumArcs(),
		AvgDegree:   g.AvgDegree(),
		TotalWeight: g.TotalWeight(),
		MinDegree:   int(^uint(0) >> 1),
	}
	if s.NumVertices == 0 {
		s.MinDegree = 0
		return s
	}
	for i := 0; i < s.NumVertices; i++ {
		d := g.Degree(Vertex(i))
		if d > s.MaxDegree {
			s.MaxDegree = d
		}
		if d < s.MinDegree {
			s.MinDegree = d
		}
		if d == 0 {
			s.Isolated++
		}
	}
	return s
}

// String renders the stats in the style of the paper's dataset table row.
func (s Stats) String() string {
	return fmt.Sprintf("|V|=%d |E|=%d Davg=%.1f Dmax=%d", s.NumVertices, s.NumArcs, s.AvgDegree, s.MaxDegree)
}

// ConnectedComponents labels each vertex with a component id in [0, count)
// using breadth-first search, and returns the labels and component count.
func ConnectedComponents(g *CSR) ([]uint32, int) {
	n := g.NumVertices()
	comp := make([]uint32, n)
	for i := range comp {
		comp[i] = NoVertex
	}
	count := 0
	queue := make([]Vertex, 0, 1024)
	for s := 0; s < n; s++ {
		if comp[s] != NoVertex {
			continue
		}
		id := uint32(count)
		count++
		comp[s] = id
		queue = append(queue[:0], Vertex(s))
		for len(queue) > 0 {
			u := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			ts, _ := g.Neighbors(u)
			for _, v := range ts {
				if comp[v] == NoVertex {
					comp[v] = id
					queue = append(queue, v)
				}
			}
		}
	}
	return comp, count
}
