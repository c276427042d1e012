package graph

import "fmt"

// Edge is a weighted directed arc used while assembling a graph.
type Edge struct {
	U, V Vertex
	W    float32
}

// BuildOptions control how a Builder turns its edge list into a CSR.
type BuildOptions struct {
	// Symmetrize adds the reverse of every arc, making the result an
	// undirected graph ("adding reverse edges" in the paper's dataset
	// preparation). Reverse arcs of self loops are not added.
	Symmetrize bool
	// DropSelfLoops removes arcs (v,v).
	DropSelfLoops bool
	// SumDuplicates merges parallel arcs by summing their weights; when
	// false, duplicates are kept.
	SumDuplicates bool
}

// DefaultBuildOptions matches the paper's dataset preparation: undirected,
// deduplicated, self loops removed.
func DefaultBuildOptions() BuildOptions {
	return BuildOptions{Symmetrize: true, DropSelfLoops: true, SumDuplicates: true}
}

// Builder accumulates edges and assembles them into a CSR graph.
// The zero value is ready to use.
type Builder struct {
	edges []Edge
	maxV  Vertex
	hasV  bool
}

// NewBuilder returns a Builder with capacity for hint edges.
func NewBuilder(hint int) *Builder {
	return &Builder{edges: make([]Edge, 0, hint)}
}

// AddEdge records the arc (u,v) with weight w.
func (b *Builder) AddEdge(u, v Vertex, w float32) {
	b.edges = append(b.edges, Edge{u, v, w})
	if !b.hasV || u > b.maxV {
		b.maxV, b.hasV = u, true
	}
	if v > b.maxV {
		b.maxV = v
	}
}

// AddUnitEdge records the arc (u,v) with weight 1.
func (b *Builder) AddUnitEdge(u, v Vertex) { b.AddEdge(u, v, 1) }

// NumEdges returns the number of arcs recorded so far.
func (b *Builder) NumEdges() int { return len(b.edges) }

// Build assembles the accumulated edges into a CSR with at least n vertices
// (n may be 0 to size the graph by the largest endpoint seen).
func (b *Builder) Build(n int, opt BuildOptions) (*CSR, error) {
	if b.hasV && int(b.maxV) >= n {
		n = int(b.maxV) + 1
	}
	return FromEdges(b.edges, n, opt)
}

// MaxVertices bounds the vertex count any builder or loader will allocate
// for — a guard against hostile or corrupt inputs (a single edge naming
// vertex 2^32−1 would otherwise commit tens of gigabytes of offsets).
// Callers with genuinely larger graphs may raise it.
var MaxVertices = 1 << 28

// FromEdges assembles an arbitrary arc list into a CSR with n vertices.
// It is the single entry point used by all loaders and generators.
//
// Rows come out sorted by target in O(V+E) with a counting sort: the arcs
// are bucketed by target, then the buckets are replayed in ascending target
// order into their sources' rows. Within a row, parallel arcs therefore
// keep their input order (an edge's reverse arc is emitted right after it),
// and with SumDuplicates their weights are summed in that order.
func FromEdges(edges []Edge, n int, opt BuildOptions) (*CSR, error) {
	if n > MaxVertices {
		return nil, fmt.Errorf("graph: %d vertices exceeds MaxVertices (%d)", n, MaxVertices)
	}
	for _, e := range edges {
		if e.U == NoVertex || e.V == NoVertex {
			return nil, fmt.Errorf("graph: edge (%d,%d) uses the reserved sentinel id", e.U, e.V)
		}
		if int(e.U) >= n || int(e.V) >= n {
			return nil, fmt.Errorf("graph: edge (%d,%d) out of range for %d vertices", e.U, e.V, n)
		}
	}
	// Count arcs per source (offsets) and per target (bucket), including
	// reverses when symmetrizing; both are prefix-summed in place.
	offsets := make([]int64, n+1)
	bucket := make([]int64, n+1)
	arcs := int64(0)
	for _, e := range edges {
		if e.U == e.V && opt.DropSelfLoops {
			continue
		}
		offsets[e.U+1]++
		bucket[e.V+1]++
		arcs++
		if opt.Symmetrize && e.U != e.V {
			offsets[e.V+1]++
			bucket[e.U+1]++
			arcs++
		}
	}
	for i := 0; i < n; i++ {
		offsets[i+1] += offsets[i]
		bucket[i+1] += bucket[i]
	}
	// Bucket the arcs by target in emission order. bucket[t] is the cursor
	// of bucket t, so afterwards it holds the bucket's end, which is where
	// bucket t+1 starts.
	src := make([]Vertex, arcs)
	srcW := make([]float32, arcs)
	for _, e := range edges {
		if e.U == e.V && opt.DropSelfLoops {
			continue
		}
		p := bucket[e.V]
		bucket[e.V]++
		src[p], srcW[p] = e.U, e.W
		if opt.Symmetrize && e.U != e.V {
			p = bucket[e.U]
			bucket[e.U]++
			src[p], srcW[p] = e.V, e.W
		}
	}
	// Replay the buckets in ascending target order into their sources'
	// rows. offsets[u] is row u's cursor and ends at row u+1's start, so one
	// shift restores the row starts.
	targets := make([]Vertex, arcs)
	weights := make([]float32, arcs)
	lo := int64(0)
	for t := 0; t < n; t++ {
		hi := bucket[t]
		for p := lo; p < hi; p++ {
			u := src[p]
			q := offsets[u]
			offsets[u]++
			targets[q], weights[q] = Vertex(t), srcW[p]
		}
		lo = hi
	}
	copy(offsets[1:], offsets[:n])
	offsets[0] = 0
	g := &CSR{Offsets: offsets, Targets: targets, Weights: weights}
	if opt.SumDuplicates {
		g.dedupAdjacency()
	}
	g.RecomputeTotalWeight()
	return g, nil
}

// dedupAdjacency merges runs of equal targets within each (sorted) neighbour
// list, summing weights in row order, and compacts the arrays in place.
func (g *CSR) dedupAdjacency() {
	n := g.NumVertices()
	out := int64(0)
	hi := g.Offsets[0]
	for i := 0; i < n; i++ {
		// Row i spans [Offsets[i], Offsets[i+1]) as built; Offsets[i] is
		// rewritten to the compacted start only after it has been read.
		lo := hi
		hi = g.Offsets[i+1]
		g.Offsets[i] = out
		for p := lo; p < hi; {
			t := g.Targets[p]
			w := g.Weights[p]
			p++
			for p < hi && g.Targets[p] == t {
				w += g.Weights[p]
				p++
			}
			g.Targets[out] = t
			g.Weights[out] = w
			out++
		}
	}
	g.Offsets[n] = out
	g.Targets = g.Targets[:out]
	g.Weights = g.Weights[:out]
}

// Symmetrized returns an undirected version of g: the union of g's arcs and
// their reverses. When both (u,v) and (v,u) exist in g their larger weight is
// kept, so Symmetrized is an involution — applying it to an already
// undirected graph returns an equal graph.
func Symmetrized(g *CSR) *CSR {
	n := g.NumVertices()
	// Canonicalize arcs to (min,max) and dedup by max weight.
	type key struct{ a, b Vertex }
	best := make(map[key]float32, g.NumArcs()/2)
	for u := 0; u < n; u++ {
		ts, ws := g.Neighbors(Vertex(u))
		for k, v := range ts {
			if v == Vertex(u) {
				continue
			}
			a, b := Vertex(u), v
			if a > b {
				a, b = b, a
			}
			kk := key{a, b}
			if w, ok := best[kk]; !ok || ws[k] > w {
				best[kk] = ws[k]
			}
		}
	}
	edges := make([]Edge, 0, len(best))
	for kk, w := range best {
		edges = append(edges, Edge{kk.a, kk.b, w})
	}
	out, err := FromEdges(edges, n, BuildOptions{Symmetrize: true, DropSelfLoops: true, SumDuplicates: false})
	if err != nil {
		// n is derived from g, so FromEdges cannot fail.
		panic(err)
	}
	return out
}
