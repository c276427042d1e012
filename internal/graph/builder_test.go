package graph

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// referenceFromEdges is the per-row comparison-sort builder FromEdges
// replaced: place the arcs row by row in emission order, sort each row by
// target, then merge duplicates. With stable set the rows are sorted
// stably, so parallel arcs keep their input order, which is the order
// FromEdges' counting sort guarantees; otherwise the sort is sort.Sort, as
// the replaced builder used, and parallel arcs come out in whatever order it
// leaves them.
func referenceFromEdges(edges []Edge, n int, opt BuildOptions, stable bool) *CSR {
	counts := make([]int64, n+1)
	for _, e := range edges {
		if e.U == e.V && opt.DropSelfLoops {
			continue
		}
		counts[e.U+1]++
		if opt.Symmetrize && e.U != e.V {
			counts[e.V+1]++
		}
	}
	for i := 0; i < n; i++ {
		counts[i+1] += counts[i]
	}
	targets := make([]Vertex, counts[n])
	weights := make([]float32, counts[n])
	cursor := append([]int64(nil), counts[:n]...)
	put := func(u, v Vertex, w float32) {
		targets[cursor[u]], weights[cursor[u]] = v, w
		cursor[u]++
	}
	for _, e := range edges {
		if e.U == e.V && opt.DropSelfLoops {
			continue
		}
		put(e.U, e.V, e.W)
		if opt.Symmetrize && e.U != e.V {
			put(e.V, e.U, e.W)
		}
	}
	for i := 0; i < n; i++ {
		s := &refSorter{targets[counts[i]:counts[i+1]], weights[counts[i]:counts[i+1]]}
		if stable {
			sort.Stable(s)
		} else {
			sort.Sort(s)
		}
	}
	g := &CSR{Offsets: counts, Targets: targets, Weights: weights}
	if !opt.SumDuplicates {
		g.RecomputeTotalWeight()
		return g
	}
	newOff := make([]int64, n+1)
	out := int64(0)
	for i := 0; i < n; i++ {
		newOff[i] = out
		for p := counts[i]; p < counts[i+1]; {
			t, w := targets[p], weights[p]
			for p++; p < counts[i+1] && targets[p] == t; p++ {
				w += weights[p]
			}
			targets[out], weights[out] = t, w
			out++
		}
	}
	newOff[n] = out
	g = &CSR{Offsets: newOff, Targets: targets[:out], Weights: weights[:out]}
	g.RecomputeTotalWeight()
	return g
}

type refSorter struct {
	t []Vertex
	w []float32
}

func (s *refSorter) Len() int           { return len(s.t) }
func (s *refSorter) Less(i, j int) bool { return s.t[i] < s.t[j] }
func (s *refSorter) Swap(i, j int) {
	s.t[i], s.t[j] = s.t[j], s.t[i]
	s.w[i], s.w[j] = s.w[j], s.w[i]
}

// fuzzEdges decodes a fuzz input into a vertex count in [1, 16] and a
// multi-edge list with self loops: byte 0 picks n (low nibble) and whether
// every weight is 1 (bit 4); each following byte triple is one edge (u, v,
// w). Non-unit weights are positive and mostly not exact in binary.
func fuzzEdges(data []byte) (edges []Edge, n int, unit bool) {
	if len(data) == 0 {
		return nil, 1, true
	}
	n = int(data[0]&15) + 1
	unit = data[0]&16 != 0
	for i := 1; i+2 < len(data); i += 3 {
		w := float32(1)
		if !unit {
			w = float32(data[i+2])/7 + 0.25
		}
		edges = append(edges, Edge{Vertex(int(data[i]) % n), Vertex(int(data[i+1]) % n), w})
	}
	return edges, n, unit
}

// FuzzFromEdges checks FromEdges against the reference builders under every
// BuildOptions combination. Against the stable reference (input-order
// duplicates) the graphs must be identical. Against the replaced unstable
// one, offsets and targets must be identical and so must unit weights; a
// non-unit weight may differ only by summation order: within 1e-6 relative,
// or the worst-case float32 bound 2(k−1)·2⁻²⁴ for k positive summands where
// that is larger. Kept duplicates must carry the same weights in some order.
func FuzzFromEdges(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x03, 0, 1, 5, 1, 0, 9, 2, 2, 3, 0, 1, 200})
	f.Add([]byte{0x12, 0, 1, 1, 0, 1, 1, 1, 1, 1})
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 24; i++ {
		b := make([]byte, 1+3*rng.Intn(60))
		rng.Read(b)
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		edges, n, unit := fuzzEdges(data)
		for mask := 0; mask < 8; mask++ {
			opt := BuildOptions{Symmetrize: mask&1 != 0, DropSelfLoops: mask&2 != 0, SumDuplicates: mask&4 != 0}
			in := append([]Edge(nil), edges...)
			got, err := FromEdges(in, n, opt)
			if err != nil {
				t.Fatalf("%+v: FromEdges: %v", opt, err)
			}
			sameCSR(t, opt, got, referenceFromEdges(edges, n, opt, true), nil)
			var summands func(u int, v Vertex) int
			if !unit {
				keep := opt
				keep.SumDuplicates = false
				summands = arcCounter(referenceFromEdges(edges, n, keep, true))
			}
			sameCSR(t, opt, got, referenceFromEdges(edges, n, opt, false), summands)
			if opt.Symmetrize && opt.SumDuplicates {
				// Both rows of a pair sum the same weights in the same order.
				if err := got.Validate(); err != nil {
					t.Fatalf("%+v: %v", opt, err)
				}
			}
		}
	})
}

// arcCounter returns the number of arcs u→v in g, which keeps duplicates.
func arcCounter(g *CSR) func(u int, v Vertex) int {
	return func(u int, v Vertex) int {
		ts, _ := g.Neighbors(Vertex(u))
		k := 0
		for _, t := range ts {
			if t == v {
				k++
			}
		}
		return k
	}
}

// sameCSR compares got with want: offsets and targets exactly, and weights
// exactly when summands is nil, else up to summation order with summands
// giving how many input arcs a merged weight sums (see FuzzFromEdges).
func sameCSR(t *testing.T, opt BuildOptions, got, want *CSR, summands func(u int, v Vertex) int) {
	t.Helper()
	if len(got.Offsets) != len(want.Offsets) || len(got.Targets) != len(want.Targets) || len(got.Weights) != len(got.Targets) {
		t.Fatalf("%+v: shape n=%d arcs=%d/%d, want n=%d arcs=%d", opt,
			got.NumVertices(), len(got.Targets), len(got.Weights), want.NumVertices(), len(want.Targets))
	}
	for i := range got.Offsets {
		if got.Offsets[i] != want.Offsets[i] {
			t.Fatalf("%+v: Offsets[%d] = %d, want %d", opt, i, got.Offsets[i], want.Offsets[i])
		}
	}
	for i := range got.Targets {
		if got.Targets[i] != want.Targets[i] {
			t.Fatalf("%+v: Targets[%d] = %d, want %d", opt, i, got.Targets[i], want.Targets[i])
		}
	}
	for i := range got.Weights {
		if got.Weights[i] != want.Weights[i] && summands == nil {
			t.Fatalf("%+v: Weights[%d] = %g, want %g", opt, i, got.Weights[i], want.Weights[i])
		}
	}
	if summands == nil {
		return
	}
	for u := 0; u < got.NumVertices(); u++ {
		ts, gw := got.Neighbors(Vertex(u))
		_, ww := want.Neighbors(Vertex(u))
		for lo := 0; lo < len(ts); {
			hi := lo + 1
			for hi < len(ts) && ts[hi] == ts[lo] {
				hi++
			}
			// A run of equal targets holds duplicates kept by
			// !SumDuplicates; compare it as a multiset.
			k := 1
			if opt.SumDuplicates {
				k = summands(u, ts[lo])
			}
			a := append([]float32(nil), gw[lo:hi]...)
			b := append([]float32(nil), ww[lo:hi]...)
			sort.Slice(a, func(i, j int) bool { return a[i] < a[j] })
			sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
			for i := range a {
				if a[i] != b[i] && !sumOrderClose(a[i], b[i], k) {
					t.Fatalf("%+v: vertex %d → %d weights %v, want %v", opt, u, ts[lo], gw[lo:hi], ww[lo:hi])
				}
			}
			lo = hi
		}
	}
}

func sumOrderClose(a, b float32, k int) bool {
	tol := math.Max(1e-6, 2*float64(k-1)*math.Pow(2, -24))
	return math.Abs(float64(a)-float64(b)) <= tol*math.Max(math.Abs(float64(a)), math.Abs(float64(b)))
}
