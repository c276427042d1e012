package quality

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"nulpa/internal/gen"
	"nulpa/internal/graph"
)

// compressByMap renumbers through a map keyed by label: the reference for
// labels that pass through byLabel as they are and for labels it ranks.
func compressByMap(labels []uint32) ([]uint32, int) {
	remap := map[uint32]uint32{}
	out := make([]uint32, len(labels))
	for i, c := range labels {
		id, ok := remap[c]
		if !ok {
			id = uint32(len(remap))
			remap[c] = id
		}
		out[i] = id
	}
	return out, len(remap)
}

// TestCompressLabelsMatchesMap: on random labellings below |V| (passed
// through as they are) and with labels at or above |V| (ranked first),
// CompressLabels numbers communities in first-appearance order exactly as
// a map does.
func TestCompressLabelsMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(300)
		labels := make([]uint32, n)
		universe := 1 + rng.Intn(n)
		for i := range labels {
			labels[i] = uint32(rng.Intn(universe))
		}
		if trial%2 == 1 {
			labels[rng.Intn(n)] = uint32(n + rng.Intn(1<<20)) // one label ≥ |V|
		}
		if _, dense := labelRange(labels); dense != (trial%2 == 0) {
			t.Fatalf("trial %d: labelling does not take the intended path", trial)
		}
		got, k := CompressLabels(labels)
		want, wk := compressByMap(labels)
		if k != wk || !slices.Equal(got, want) {
			t.Fatalf("trial %d (n=%d): CompressLabels %v (%d) != map renumbering %v (%d)", trial, n, got, k, want, wk)
		}
	}
}

// labelOrderReference evaluates Q and the census with maps keyed by label,
// accumulating in vertex and arc order and summing Q's terms in ascending
// label order: the order ModularityResolution and Summarize promise.
func labelOrderReference(g *graph.CSR, labels []uint32) Summary {
	intra, total, sizes := map[uint32]float64{}, map[uint32]float64{}, map[uint32]int{}
	for u, cu := range labels {
		sizes[cu]++
		ts, ws := g.Neighbors(graph.Vertex(u))
		for x, v := range ts {
			total[cu] += float64(ws[x])
			if labels[v] == cu {
				intra[cu] += float64(ws[x])
			}
		}
	}
	order := make([]uint32, 0, len(sizes))
	for c := range sizes {
		order = append(order, c)
	}
	slices.Sort(order)
	twoM := g.TotalWeight()
	var s Summary
	var all []int
	for _, c := range order {
		if total[c] != 0 {
			frac := total[c] / twoM
			s.Modularity += intra[c]/twoM - frac*frac
		}
		all = append(all, sizes[c])
	}
	sort.Ints(all)
	s.Communities, s.Smallest, s.Largest, s.Median = len(all), all[0], all[len(all)-1], all[len(all)/2]
	sum := 0
	for _, v := range all {
		sum += v
	}
	s.Mean = float64(sum) / float64(len(all))
	return s
}

// TestModularitySummaryLabelOrder: Q and the Summary equal the label-order
// reference bit for bit when the largest label is far below |V|, when the
// labels are the vertex ids, and when one label is ≥ |V| (renumbered by
// rank).
func TestModularitySummaryLabelOrder(t *testing.T) {
	g := gen.Web(gen.DefaultWeb(3000, 8, 5))
	n := g.NumVertices()
	rng := rand.New(rand.NewSource(9))
	few := make([]uint32, n)
	ids := make([]uint32, n)
	wide := make([]uint32, n)
	for i := range few {
		few[i] = uint32(rng.Intn(40))
		ids[i] = uint32(i)
		wide[i] = uint32(rng.Intn(n))
	}
	wide[17] = uint32(n) + 5
	for _, tc := range []struct {
		name   string
		labels []uint32
	}{{"max-label-below-V", few}, {"vertex-ids", ids}, {"label-at-least-V", wide}} {
		want := labelOrderReference(g, tc.labels)
		if q := Modularity(g, tc.labels); math.Float64bits(q) != math.Float64bits(want.Modularity) {
			t.Errorf("%s: Q = %v, label-order reference %v", tc.name, q, want.Modularity)
		}
		if got := Summarize(g, tc.labels); got != want {
			t.Errorf("%s: Summarize = %+v, label-order reference %+v", tc.name, got, want)
		}
	}
}

// roadLabelling is the road graph of DefaultRoad(400000, 1) (465k
// vertices) with vertex-id labels of the shape a detector returns on it:
// every vertex takes the smallest id within eight hops, 30k communities in
// all.
func roadLabelling() (*graph.CSR, []uint32) {
	g := gen.Road(gen.DefaultRoad(400000, 1))
	labels := make([]uint32, g.NumVertices())
	for i := range labels {
		labels[i] = uint32(i)
	}
	next := slices.Clone(labels)
	for hop := 0; hop < 8; hop++ {
		for u := range labels {
			ts, _ := g.Neighbors(graph.Vertex(u))
			for _, v := range ts {
				next[u] = min(next[u], labels[v])
			}
		}
		copy(labels, next)
	}
	return g, labels
}

// BenchmarkCompressLabels renumbers a road labelling of vertex ids, as
// engine.NewResult does inside every detector's Detect.
func BenchmarkCompressLabels(b *testing.B) {
	_, labels := roadLabelling()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		CompressLabels(labels)
	}
}

// BenchmarkSummarize summarizes a compressed road labelling, as the tool
// does after every detection.
func BenchmarkSummarize(b *testing.B) {
	g, labels := roadLabelling()
	labels, _ = CompressLabels(labels)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Summarize(g, labels)
	}
}
