// Package reorder renumbers graph vertices to improve memory locality — the
// application of label propagation behind Boldi et al.'s Layered Label
// Propagation (cited in the paper's related work): vertices of one community
// get consecutive identifiers, so the CSR adjacency and label arrays that
// LPA streams over stay cache-resident. The abl-reorder experiment measures
// the effect on ν-LPA itself.
package reorder

import (
	"fmt"
	"sort"

	"nulpa/internal/graph"
)

// Permutation maps old vertex ids to new ones: NewID[v] is v's new
// identifier.
type Permutation struct {
	NewID []graph.Vertex
	OldID []graph.Vertex
}

// ByCommunity builds the LLP-style ordering: vertices sorted by community
// label (communities by ascending minimum member, so the ordering is stable
// and deterministic), members by ascending old id.
func ByCommunity(labels []uint32) Permutation {
	n := len(labels)
	// Order communities by their minimum member id.
	minMember := map[uint32]int{}
	for v := 0; v < n; v++ {
		c := labels[v]
		if m, ok := minMember[c]; !ok || v < m {
			minMember[c] = v
		}
	}
	order := make([]graph.Vertex, n)
	for i := range order {
		order[i] = graph.Vertex(i)
	}
	sort.Slice(order, func(i, j int) bool {
		ci, cj := labels[order[i]], labels[order[j]]
		if ci != cj {
			return minMember[ci] < minMember[cj]
		}
		return order[i] < order[j]
	})
	return fromOrder(order)
}

// fromOrder converts a new-position→old-id order into a Permutation.
func fromOrder(order []graph.Vertex) Permutation {
	n := len(order)
	p := Permutation{NewID: make([]graph.Vertex, n), OldID: order}
	for newID, old := range order {
		p.NewID[old] = graph.Vertex(newID)
	}
	return p
}

// Apply relabels g under p, returning a new CSR whose vertex v corresponds
// to old vertex p.OldID[v].
func Apply(g *graph.CSR, p Permutation) (*graph.CSR, error) {
	n := g.NumVertices()
	if len(p.NewID) != n || len(p.OldID) != n {
		return nil, fmt.Errorf("reorder: permutation size %d/%d for %d vertices", len(p.NewID), len(p.OldID), n)
	}
	offsets := make([]int64, n+1)
	for newV := 0; newV < n; newV++ {
		offsets[newV+1] = offsets[newV] + int64(g.Degree(p.OldID[newV]))
	}
	targets := make([]graph.Vertex, g.NumArcs())
	weights := make([]float32, g.NumArcs())
	for newV := 0; newV < n; newV++ {
		ts, ws := g.Neighbors(p.OldID[newV])
		base := offsets[newV]
		for k, u := range ts {
			targets[base+int64(k)] = p.NewID[u]
			weights[base+int64(k)] = ws[k]
		}
		// Keep adjacency sorted under the new ids.
		sortAdjRange(targets, weights, base, offsets[newV+1])
	}
	return graph.New(offsets, targets, weights), nil
}

// GapCost measures layout locality: the mean absolute id distance between
// adjacent vertices (the quantity WebGraph-style compression and cache
// behaviour both depend on). Lower is better.
func GapCost(g *graph.CSR) float64 {
	var sum float64
	var cnt int64
	n := g.NumVertices()
	for v := 0; v < n; v++ {
		ts, _ := g.Neighbors(graph.Vertex(v))
		for _, u := range ts {
			d := int64(v) - int64(u)
			if d < 0 {
				d = -d
			}
			sum += float64(d)
			cnt++
		}
	}
	if cnt == 0 {
		return 0
	}
	return sum / float64(cnt)
}

func sortAdjRange(targets []graph.Vertex, weights []float32, lo, hi int64) {
	for i := lo + 1; i < hi; i++ {
		t, w := targets[i], weights[i]
		j := i
		for j > lo && targets[j-1] > t {
			targets[j], weights[j] = targets[j-1], weights[j-1]
			j--
		}
		targets[j], weights[j] = t, w
	}
}
