package partition

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"testing"

	"nulpa/internal/graph"
)

// specMoveVertex is moveVertex's rule as a touched list states it, the
// spec the one-pass moveVertex must reproduce: the parts of v's neighbours
// other than v are listed in the order their first arc reaches them, and a
// listed part replaces the best so far, from v's own part, only if
// strictly more connected. A part is listed whenever its sum is 0 before
// an add, so one whose sum is still or again 0 is listed twice; the second
// entry never wins. conn holds one zero per part, and holds them again on
// return.
func specMoveVertex(g *graph.CSR, v graph.Vertex, parts []uint32, sizes []int,
	conn []float64, touched *[]uint32, capacity int) decision {
	ts, ws := g.Neighbors(v)
	if len(ts) == 0 {
		return stay
	}
	*touched = (*touched)[:0]
	for i, j := range ts {
		if j == v {
			continue
		}
		p := parts[j]
		if conn[p] == 0 {
			*touched = append(*touched, p)
		}
		conn[p] += float64(ws[i])
	}
	cur := parts[v]
	best, bestW := cur, conn[cur]
	for _, p := range *touched {
		if conn[p] > bestW {
			best, bestW = p, conn[p]
		}
	}
	for _, p := range *touched {
		conn[p] = 0
	}
	if best == cur {
		return stay
	}
	if sizes[best] >= capacity {
		return refused
	}
	sizes[best]++
	sizes[cur]--
	parts[v] = best
	return moved
}

// specWeights are the weight palettes of FuzzMoveVertexMatchesSpec: small
// integers, so connections tie exactly; zeros; negatives, so a sum can
// fall below or back to zero; NaN; and fractions, whose sums round.
var specWeights = [][]float32{
	{1, 1, 2, 3},
	{0, 0, 1, 2},
	{-1, -0.5, 0, 1, 2},
	{1, 2, float32(math.NaN())},
	{0.1, 0.2, 0.3, 0.7},
}

// specGraph draws an undirected graph of n vertices: about deg edges per
// vertex to uniform random vertices, parallel edges kept, a self loop on
// every fifth vertex, and vertex 0 joined to 2k random vertices, so rows
// of at least k arcs appear at every k. Weights come from ws.
func specGraph(rng *rand.Rand, n, deg, k int, ws []float32) *graph.CSR {
	w := func() float32 { return ws[rng.Intn(len(ws))] }
	var edges []graph.Edge
	for u := 0; u < n; u++ {
		for range rng.Intn(2*deg + 1) {
			edges = append(edges, graph.Edge{U: graph.Vertex(u), V: graph.Vertex(rng.Intn(n)), W: w()})
		}
		if u%5 == 0 {
			edges = append(edges, graph.Edge{U: graph.Vertex(u), V: graph.Vertex(u), W: w()})
		}
	}
	for range 2 * k {
		edges = append(edges, graph.Edge{U: 0, V: graph.Vertex(1 + rng.Intn(n-1)), W: w()})
	}
	g, err := graph.FromEdges(edges, n, graph.BuildOptions{Symmetrize: true})
	if err != nil {
		panic(err)
	}
	return g
}

// FuzzMoveVertexMatchesSpec holds moveVertex to specMoveVertex. On a
// random graph of 2 + nb mod 400 vertices with the weights of
// specWeights[wm mod 5], and k = 2 + kb mod 63 parts, three full sweeps
// from a random assignment must make the same decision for every vertex
// and leave conn zeroed, and refine must give referenceRefine's parts,
// sweep count, convergence and CutWeight bits. The seeds cover k of 2, 3,
// 16 and 64 under every palette.
func FuzzMoveVertexMatchesSpec(f *testing.F) {
	for _, k := range []int{2, 3, 16, 64} {
		for wm := range specWeights {
			f.Add(int64(100*k+wm), uint8(k-2), uint8(wm), uint16(300))
		}
	}
	f.Fuzz(func(t *testing.T, seed int64, kb, wm uint8, nb uint16) {
		n, k := 2+int(nb)%400, 2+int(kb)%63
		rng := rand.New(rand.NewSource(seed))
		g := specGraph(rng, n, 1+rng.Intn(8), k, specWeights[int(wm)%len(specWeights)])
		imbalance := []float64{0, 0.1}[rng.Intn(2)]
		_, capacity := partSizes(n, k, imbalance)

		spec, got := make([]uint32, n), make([]uint32, n)
		specSizes, gotSizes := make([]int, k), make([]int, k)
		for v := range spec {
			p := uint32(rng.Intn(k))
			spec[v], got[v] = p, p
			specSizes[p]++
			gotSizes[p]++
		}
		specConn, conn := make([]float64, k), make([]float64, k+1)
		var touched []uint32
		for sweep := range 3 {
			for v := range n {
				want := specMoveVertex(g, graph.Vertex(v), spec, specSizes, specConn, &touched, capacity)
				d := moveVertex(g, graph.Vertex(v), got, gotSizes, conn, capacity)
				if d != want || got[v] != spec[v] {
					t.Fatalf("sweep %d vertex %d (degree %d, k %d): decision %d to part %d, spec %d to part %d",
						sweep, v, g.Degree(graph.Vertex(v)), k, d, got[v], want, spec[v])
				}
				if slices.ContainsFunc(conn, func(c float64) bool { return c != 0 }) {
					t.Fatalf("sweep %d vertex %d: conn not reset: %v", sweep, v, conn)
				}
			}
			if !slices.Equal(gotSizes, specSizes) {
				t.Fatalf("sweep %d: sizes %v, spec %v", sweep, gotSizes, specSizes)
			}
		}

		opt := DefaultOptions(k)
		opt.Imbalance = imbalance
		opt.Tolerance = []float64{0, 0.001}[rng.Intn(2)]
		opt.Context = context.Background()
		ideal, capacity := partSizes(n, k, imbalance)
		res, err := refine(g, opt, seed, k, ideal, capacity)
		if err != nil {
			t.Fatal(err)
		}
		ref := referenceRefine(g, opt, seed, k, ideal, capacity)
		if !slices.Equal(res.Parts, ref.Parts) || res.Iterations != ref.Iterations || res.Converged != ref.Converged ||
			math.Float64bits(res.CutWeight) != math.Float64bits(ref.CutWeight) {
			t.Fatalf("refine: %d sweeps (converged %v, cut %g), spec %d (converged %v, cut %g), parts equal %v",
				res.Iterations, res.Converged, res.CutWeight, ref.Iterations, ref.Converged, ref.CutWeight,
				slices.Equal(res.Parts, ref.Parts))
		}
	})
}
