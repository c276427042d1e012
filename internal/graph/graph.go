// Package graph provides a weighted, undirected graph in Compressed Sparse
// Row (CSR) form, plus builders, loaders, and statistics.
//
// The representation mirrors the one assumed by the ν-LPA paper: vertices are
// dense 32-bit identifiers, every undirected edge {u,v} is stored twice (once
// per endpoint), and per-edge weights are 32-bit floats (unit weight for
// unweighted inputs). Offsets are 64-bit so graphs with more than 2^31 edge
// slots remain representable.
package graph

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Vertex is the identifier type for graph vertices. Identifiers are dense:
// a graph with N vertices uses exactly the identifiers [0, N).
type Vertex = uint32

// NoVertex is a sentinel that is never a valid vertex identifier.
const NoVertex Vertex = math.MaxUint32

// CSR is a weighted graph in Compressed Sparse Row form. The adjacency of
// vertex i is Targets[Offsets[i]:Offsets[i+1]] with matching Weights.
//
// CSR is an undirected graph stored in directed form: for every undirected
// edge {u,v} both (u,v) and (v,u) appear, with equal weights. Builders and
// loaders enforce this; code that constructs a CSR by hand can check it with
// Validate.
type CSR struct {
	// Offsets has length NumVertices()+1; Offsets[0] == 0 and the sequence
	// is nondecreasing.
	Offsets []int64
	// Targets holds the neighbour lists back to back.
	Targets []Vertex
	// Weights holds the per-edge weights, parallel to Targets.
	Weights []float32

	totalWeight float64 // cached sum of all Weights (2m for undirected graphs)
}

// New constructs a CSR from raw arrays. It computes the cached total weight
// but performs no validation; call Validate to check structural invariants.
func New(offsets []int64, targets []Vertex, weights []float32) *CSR {
	g := &CSR{Offsets: offsets, Targets: targets, Weights: weights}
	g.RecomputeTotalWeight()
	return g
}

// NumVertices returns N, the number of vertices.
func (g *CSR) NumVertices() int {
	if len(g.Offsets) == 0 {
		return 0
	}
	return len(g.Offsets) - 1
}

// NumArcs returns the number of stored directed arcs (2·|E| for an undirected
// graph with |E| undirected edges, counting self loops once).
func (g *CSR) NumArcs() int64 {
	if len(g.Offsets) == 0 {
		return 0
	}
	return g.Offsets[len(g.Offsets)-1]
}

// NumEdges returns the number of undirected edges |E|, i.e. NumArcs()/2
// rounded up (self loops are stored as a single arc).
func (g *CSR) NumEdges() int64 { return (g.NumArcs() + 1) / 2 }

// Degree returns the number of arcs leaving vertex i (its neighbour count,
// counting multi-edges if any survived deduplication).
func (g *CSR) Degree(i Vertex) int {
	return int(g.Offsets[i+1] - g.Offsets[i])
}

// Neighbors returns the adjacency slices of vertex i. The returned slices
// alias the graph's storage and must not be modified.
func (g *CSR) Neighbors(i Vertex) ([]Vertex, []float32) {
	lo, hi := g.Offsets[i], g.Offsets[i+1]
	return g.Targets[lo:hi], g.Weights[lo:hi]
}

// WeightedDegree returns K_i, the sum of weights of arcs leaving vertex i.
func (g *CSR) WeightedDegree(i Vertex) float64 {
	_, ws := g.Neighbors(i)
	var k float64
	for _, w := range ws {
		k += float64(w)
	}
	return k
}

// TotalWeight returns the sum of all stored arc weights. For an undirected
// graph this equals 2m where m is the total undirected edge weight.
func (g *CSR) TotalWeight() float64 { return g.totalWeight }

// RecomputeTotalWeight refreshes the cached arc-weight sum; call it after
// mutating Weights in place.
func (g *CSR) RecomputeTotalWeight() {
	var t float64
	for _, w := range g.Weights {
		t += float64(w)
	}
	g.totalWeight = t
}

// AvgDegree returns the mean vertex degree (arcs per vertex).
func (g *CSR) AvgDegree() float64 {
	n := g.NumVertices()
	if n == 0 {
		return 0
	}
	return float64(g.NumArcs()) / float64(n)
}

// HasEdge reports whether the arc (u,v) is present. Adjacency lists must be
// sorted (builders sort them); on unsorted lists the result is undefined.
func (g *CSR) HasEdge(u, v Vertex) bool {
	ts, _ := g.Neighbors(u)
	k := sort.Search(len(ts), func(i int) bool { return ts[i] >= v })
	return k < len(ts) && ts[k] == v
}

// EdgeWeight returns the weight of arc (u,v) and whether it exists.
// Adjacency lists must be sorted.
func (g *CSR) EdgeWeight(u, v Vertex) (float32, bool) {
	ts, ws := g.Neighbors(u)
	k := sort.Search(len(ts), func(i int) bool { return ts[i] >= v })
	if k < len(ts) && ts[k] == v {
		return ws[k], true
	}
	return 0, false
}

// ErrInvalidGraph is wrapped by all Validate failures.
var ErrInvalidGraph = errors.New("graph: invalid CSR")

// Validate checks structural invariants: offset monotonicity, array lengths,
// target range, sorted adjacency, and undirected symmetry (every arc has a
// reverse arc of equal weight). It returns nil when the graph is well formed.
func (g *CSR) Validate() error {
	n := g.NumVertices()
	if len(g.Offsets) == 0 {
		if len(g.Targets) == 0 && len(g.Weights) == 0 {
			return nil
		}
		return fmt.Errorf("%w: empty offsets with nonempty arrays", ErrInvalidGraph)
	}
	if g.Offsets[0] != 0 {
		return fmt.Errorf("%w: offsets[0] = %d, want 0", ErrInvalidGraph, g.Offsets[0])
	}
	for i := 0; i < n; i++ {
		if g.Offsets[i+1] < g.Offsets[i] {
			return fmt.Errorf("%w: offsets not monotone at vertex %d", ErrInvalidGraph, i)
		}
	}
	m := g.Offsets[n]
	if int64(len(g.Targets)) != m || int64(len(g.Weights)) != m {
		return fmt.Errorf("%w: len(targets)=%d len(weights)=%d, want %d",
			ErrInvalidGraph, len(g.Targets), len(g.Weights), m)
	}
	for _, t := range g.Targets {
		if int(t) >= n {
			return fmt.Errorf("%w: target %d out of range [0,%d)", ErrInvalidGraph, t, n)
		}
	}
	for i := 0; i < n; i++ {
		ts, _ := g.Neighbors(Vertex(i))
		for k := 1; k < len(ts); k++ {
			if ts[k] < ts[k-1] {
				return fmt.Errorf("%w: adjacency of vertex %d not sorted", ErrInvalidGraph, i)
			}
		}
	}
	// Symmetry: every (u,v,w) must have (v,u,w).
	for u := 0; u < n; u++ {
		ts, ws := g.Neighbors(Vertex(u))
		for k, v := range ts {
			if v == Vertex(u) {
				continue // self loop, stored once
			}
			w, ok := g.EdgeWeight(v, Vertex(u))
			if !ok {
				return fmt.Errorf("%w: arc (%d,%d) has no reverse", ErrInvalidGraph, u, v)
			}
			if w != ws[k] {
				return fmt.Errorf("%w: arc (%d,%d) weight %g != reverse weight %g",
					ErrInvalidGraph, u, v, ws[k], w)
			}
		}
	}
	return nil
}
