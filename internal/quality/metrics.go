package quality

import (
	"fmt"

	"nulpa/internal/graph"
)

// ARI computes the Adjusted Rand Index between two community assignments:
// the Rand index (pair-counting agreement) corrected for chance. 1 means
// identical partitions, ~0 means independent, negative means worse than
// chance. A complement to NMI with different sensitivity to partition
// granularity.
func ARI(a, b []uint32) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("quality: ARI of %d vs %d labels", len(a), len(b)))
	}
	n := len(a)
	if n == 0 {
		return 1
	}
	ca, _ := Compact(a)
	cb, _ := Compact(b)
	countA := map[uint32]int64{}
	countB := map[uint32]int64{}
	joint := map[[2]uint32]int64{}
	for i := 0; i < n; i++ {
		countA[ca[i]]++
		countB[cb[i]]++
		joint[[2]uint32{ca[i], cb[i]}]++
	}
	choose2 := func(x int64) float64 { return float64(x) * float64(x-1) / 2 }
	var sumJoint, sumA, sumB float64
	for _, c := range joint {
		sumJoint += choose2(c)
	}
	for _, c := range countA {
		sumA += choose2(c)
	}
	for _, c := range countB {
		sumB += choose2(c)
	}
	total := choose2(int64(n))
	expected := sumA * sumB / total
	maxIndex := (sumA + sumB) / 2
	if maxIndex == expected {
		// Both partitions trivial in the same way.
		if sumJoint == expected {
			return 1
		}
		return 0
	}
	return (sumJoint - expected) / (maxIndex - expected)
}

// Coverage returns the fraction of total edge weight that falls inside
// communities — the first term of modularity, in [0,1]. High coverage with
// many communities indicates a good cut.
func Coverage(g *graph.CSR, labels []uint32) float64 {
	if len(labels) != g.NumVertices() {
		panic(fmt.Sprintf("quality: %d labels for %d vertices", len(labels), g.NumVertices()))
	}
	twoM := g.TotalWeight()
	if twoM == 0 {
		return 1
	}
	var intra float64
	for u := 0; u < g.NumVertices(); u++ {
		ts, ws := g.Neighbors(graph.Vertex(u))
		for k, v := range ts {
			if labels[u] == labels[v] {
				intra += float64(ws[k])
			}
		}
	}
	return intra / twoM
}

// EdgeCut returns the total weight of arcs crossing community boundaries,
// counting each undirected edge twice (both arc directions), and the
// fraction of total arc weight it represents. This is the partitioning
// objective the paper's conclusion motivates.
func EdgeCut(g *graph.CSR, labels []uint32) (weight float64, fraction float64) {
	if len(labels) != g.NumVertices() {
		panic(fmt.Sprintf("quality: %d labels for %d vertices", len(labels), g.NumVertices()))
	}
	twoM := g.TotalWeight()
	for u := 0; u < g.NumVertices(); u++ {
		ts, ws := g.Neighbors(graph.Vertex(u))
		for k, v := range ts {
			if labels[u] != labels[v] {
				weight += float64(ws[k])
			}
		}
	}
	if twoM > 0 {
		fraction = weight / twoM
	}
	return weight, fraction
}
