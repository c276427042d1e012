package graph

import (
	"math"
	"math/rand"
	"runtime"
	"sort"
	"testing"
)

// referenceFromEdges is the first, per-row comparison-sort builder: place
// the arcs row by row in emission order, sort each row by target with the
// builder's rowSorter, then merge duplicates. With stable set the rows are
// sorted stably, so parallel arcs keep their input order, which is the
// order FromEdges guarantees; otherwise the sort is sort.Sort, as that
// builder used, and parallel arcs come out in whatever order it leaves them.
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
		s := rowSorter{targets[counts[i]:counts[i+1]], weights[counts[i]:counts[i+1]]}
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
// BuildOptions combination, and the internal builder at 1 to 4 workers
// against FromEdges, so that at these toy sizes every edge chunk, target
// range and row range boundary is fuzzed. Against the stable reference
// (input-order duplicates) and at every worker count the graphs must be
// identical. Against the replaced unstable one, offsets and targets must be
// identical and so must unit weights; a non-unit weight may differ only by
// summation order: within 1e-6 relative, or the worst-case float32 bound
// 2(k−1)·2⁻²⁴ for k positive summands where that is larger. Kept duplicates
// must carry the same weights in some order.
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
			for p := 1; p <= 4; p++ {
				par, err := fromEdges(in, n, opt, p)
				if err != nil {
					t.Fatalf("%+v: %d workers: %v", opt, p, err)
				}
				sameCSR(t, opt, par, got, nil)
				if par.TotalWeight() != got.TotalWeight() {
					t.Fatalf("%+v: %d workers: TotalWeight %g, want %g", opt, p, par.TotalWeight(), got.TotalWeight())
				}
			}
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

// TestFromEdgesWorkersFirstBadEdge checks that at every worker count the
// build reports the input's first invalid edge, whichever chunk holds it.
func TestFromEdgesWorkersFirstBadEdge(t *testing.T) {
	edges := make([]Edge, 40)
	for i := range edges {
		edges[i] = Edge{Vertex(i % 5), Vertex((i + 1) % 5), 1}
	}
	for _, bad := range [][2]int{{3, 31}, {17, 38}, {39, 39}, {0, 25}} {
		in := append([]Edge(nil), edges...)
		in[bad[0]] = Edge{7, 1, 1}
		in[bad[1]] = Edge{NoVertex, 1, 1}
		_, want := fromEdges(in, 5, DefaultBuildOptions(), 1)
		if want == nil {
			t.Fatalf("bad edges at %v: no error at 1 worker", bad)
		}
		for p := 2; p <= 4; p++ {
			if _, err := fromEdges(in, 5, DefaultBuildOptions(), p); err == nil || err.Error() != want.Error() {
				t.Errorf("bad edges at %v, %d workers: error %v, want %v", bad, p, err, want)
			}
		}
	}
}

// TestBuildWorkers pins how many workers FromEdges sorts with: one below
// twice parallelEdges edges, and above it no more than GOMAXPROCS,
// maxBuildWorkers or one more than the mean degree allows.
func TestBuildWorkers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	for _, c := range []struct{ m, n, want int }{
		{0, 0, 1},
		{2*parallelEdges - 1, 1000, 1},
		{2 * parallelEdges, 1000, 2},
		{5 * parallelEdges, 1000, 5},
		{100 * parallelEdges, 1000, maxBuildWorkers},
		{4 * parallelEdges, 4 * parallelEdges, 2},
		{4 * parallelEdges, 8 * parallelEdges, 1},
		{4 * parallelEdges, 0, 4},
	} {
		if got := buildWorkers(c.m, c.n); got != c.want {
			t.Errorf("GOMAXPROCS 8: buildWorkers(%d, %d) = %d, want %d", c.m, c.n, got, c.want)
		}
	}
	runtime.GOMAXPROCS(2)
	if got := buildWorkers(100*parallelEdges, 1000); got != 2 {
		t.Errorf("GOMAXPROCS 2: buildWorkers = %d, want 2", got)
	}
}

// TestFromEdgesWorkersMatchSerial builds multigraphs with self loops,
// duplicates and non-unit weights at 1 to maxBuildWorkers workers under
// every BuildOptions combination, and wants the stable reference graph at
// each count. The inputs cover rows and buckets that span several chunks,
// a graph with more vertices than edges (mostly empty rows and ranges) and
// one whose arcs nearly all share a target (one bucket for every range).
func TestFromEdgesWorkersMatchSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	random := func(m, n int) []Edge {
		edges := make([]Edge, m)
		for i := range edges {
			edges[i] = Edge{Vertex(rng.Intn(n)), Vertex(rng.Intn(n)), float32(rng.Intn(50))/8 + 0.1}
		}
		return edges
	}
	star := random(3000, 40)
	for i := range star {
		if i%10 != 0 {
			star[i].V = 3
		}
	}
	for _, c := range []struct {
		name  string
		edges []Edge
		n     int
	}{
		{"dense", random(5000, 200), 200},
		{"sparse", random(300, 5000), 5000},
		{"star", star, 40},
	} {
		for mask := 0; mask < 8; mask++ {
			opt := BuildOptions{Symmetrize: mask&1 != 0, DropSelfLoops: mask&2 != 0, SumDuplicates: mask&4 != 0}
			want := referenceFromEdges(c.edges, c.n, opt, true)
			for p := 1; p <= maxBuildWorkers; p++ {
				got, err := fromEdges(c.edges, c.n, opt, p)
				if err != nil {
					t.Fatalf("%s, %d workers: %v", c.name, p, err)
				}
				sameCSR(t, opt, got, want, nil)
				if got.TotalWeight() != want.TotalWeight() {
					t.Fatalf("%s %+v, %d workers: TotalWeight %g, want %g", c.name, opt, p, got.TotalWeight(), want.TotalWeight())
				}
			}
		}
	}
}

// TestFromEdgesWorkersKeepArcOrder checks the order the counting sort
// promises at every worker count: with duplicates kept, the parallel arcs
// of a row come out in input order, and an edge's reverse arc sits in
// its target's row at the edge's input position, wherever the chunk and
// range boundaries fall.
func TestFromEdgesWorkersKeepArcOrder(t *testing.T) {
	const n, k = 6, 64
	var edges []Edge
	for i := 0; i < k; i++ {
		edges = append(edges, Edge{0, 1, float32(i)}, Edge{Vertex(2 + i%4), Vertex(2 + (i+1)%4), 1}, Edge{1, 0, float32(k + i)})
	}
	opt := BuildOptions{Symmetrize: true, DropSelfLoops: true}
	for p := 1; p <= maxBuildWorkers; p++ {
		g, err := fromEdges(edges, n, opt, p)
		if err != nil {
			t.Fatalf("%d workers: %v", p, err)
		}
		for _, u := range []Vertex{0, 1} {
			ts, ws := g.Neighbors(u)
			if len(ts) != 2*k {
				t.Fatalf("%d workers: vertex %d has %d arcs, want %d", p, u, len(ts), 2*k)
			}
			// Row 0 and row 1 each see the edges 0→1 and 1→0 (weights
			// i and k+i of triple i) in input order: i, k+i, i+1, ...
			for j, w := range ws {
				if want := float32(j/2 + (j%2)*k); w != want || ts[j] != 1-u {
					t.Fatalf("%d workers: vertex %d arc %d = (%d, %g), want (%d, %g)", p, u, j, ts[j], w, 1-u, want)
				}
			}
		}
	}
}

// TestFromEdgesRebuildIdentity rebuilds a graph from its own arcs, which
// are already symmetric, sorted and merged, and wants it back unchanged at
// every worker count.
func TestFromEdgesRebuildIdentity(t *testing.T) {
	g := randomGraph(t, 500, 4000, 11)
	var arcs []Edge
	for u := 0; u < g.NumVertices(); u++ {
		ts, ws := g.Neighbors(Vertex(u))
		for j := range ts {
			arcs = append(arcs, Edge{Vertex(u), ts[j], ws[j]})
		}
	}
	opt := BuildOptions{Symmetrize: false, DropSelfLoops: true, SumDuplicates: true}
	for p := 1; p <= maxBuildWorkers; p++ {
		back, err := fromEdges(arcs, g.NumVertices(), opt, p)
		if err != nil {
			t.Fatalf("%d workers: %v", p, err)
		}
		if err := back.Validate(); err != nil {
			t.Fatalf("%d workers: Validate: %v", p, err)
		}
		sameCSR(t, opt, back, g, nil)
		if back.TotalWeight() != g.TotalWeight() {
			t.Errorf("%d workers: TotalWeight %g, want %g", p, back.TotalWeight(), g.TotalWeight())
		}
	}
}

// TestFromEdgesWorkersAllocs bounds a build's allocations at forced worker
// counts 1 to maxBuildWorkers. One worker makes four: offsets, targets,
// weights and the CSR. More workers add the histograms, the shared state,
// one goroutine closure per extra worker and at most two of the runtime's
// own goroutine and wait records, so workers or histograms set up once per
// pass instead of once per build fail it. The input's rows are all short,
// so no worker allocates a sort buffer. The fewest mallocs over ten warm
// builds are taken; testing.AllocsPerRun is not used because it runs at
// GOMAXPROCS 1.
func TestFromEdgesWorkersAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	edges := make([]Edge, 20000)
	for i := range edges {
		edges[i] = Edge{Vertex(rng.Intn(2000)), Vertex(rng.Intn(2000)), 1}
	}
	for p := 1; p <= maxBuildWorkers; p++ {
		fewest := uint64(math.MaxUint64)
		for run := 0; run <= 10; run++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if _, err := fromEdges(edges, 2000, DefaultBuildOptions(), p); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			if run > 0 { // the first build may grow the runtime's goroutine pool
				fewest = min(fewest, after.Mallocs-before.Mallocs)
			}
		}
		want := uint64(4)
		if p > 1 {
			want += 2 + uint64(p-1) + 2
		}
		if fewest > want {
			t.Errorf("%d workers: %d allocations per build, want at most %d", p, fewest, want)
		}
	}
}

// TestFromEdgesBytes bounds the bytes a build allocates at p = 1 and 2
// workers: the CSR's own 8 bytes per arc before merging, 8·(p+1)·(n+1)
// bytes for the offsets and histograms, and 64 KiB for the rest. Scratch
// that copies the arcs once more, such as target buckets, fails it. The
// fewest bytes over several warm builds are taken, so that allocations by
// other goroutines do not count.
func TestFromEdgesBytes(t *testing.T) {
	const n, m = 5000, 40000
	rng := rand.New(rand.NewSource(9))
	edges := make([]Edge, m)
	arcs := uint64(0)
	for i := range edges {
		edges[i] = Edge{Vertex(rng.Intn(n)), Vertex(rng.Intn(n)), 1}
		if edges[i].U != edges[i].V {
			arcs += 2
		}
	}
	for _, p := range []int{1, 2} {
		fewest := uint64(math.MaxUint64)
		for run := 0; run <= 5; run++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if _, err := fromEdges(edges, n, DefaultBuildOptions(), p); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			if run > 0 {
				fewest = min(fewest, after.TotalAlloc-before.TotalAlloc)
			}
		}
		if want := 8*arcs + 8*uint64(p+1)*(n+1) + 64<<10; fewest > want {
			t.Errorf("%d workers: %d bytes per build of %d arcs, want at most %d", p, fewest, arcs, want)
		}
	}
}
