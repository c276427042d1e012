package graph

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
)

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
//
// m edges over n vertices are sorted by
// min(GOMAXPROCS, m/parallelEdges, maxBuildWorkers, 1+m/n) workers, at least
// one. Each extra worker holds a histogram of n counters, so the last cap
// keeps those histograms no larger than the edge list. One worker runs the
// passes on the calling goroutine alone.
//
// The graph is the same at every worker count. Worker c counts a contiguous
// chunk of the edges, and its cursor in bucket t starts after every arc of
// the lower buckets and of the lower chunks' arcs in t, so the buckets hold
// the arcs in input order. Each worker then replays an
// ascending range of targets, with its own cursor per row placed after the
// arcs of the lower ranges, so every row is filled in ascending target
// order. Duplicates are merged per row range, each row's weights summed in
// row order, and TotalWeight is one in-order sum over the result.
func FromEdges(edges []Edge, n int, opt BuildOptions) (*CSR, error) {
	return fromEdges(edges, n, opt, buildWorkers(len(edges), n))
}

const (
	// parallelEdges is the fewest input edges that earn a build worker, so
	// an input below twice this is sorted on the calling goroutine alone.
	parallelEdges = 1 << 17
	// maxBuildWorkers caps a build's workers, which bounds the histogram
	// memory and sizes csrBuild's per-worker arrays. Builds above 2 workers
	// have been checked for correctness but their speed is unmeasured.
	maxBuildWorkers = 8
)

// buildWorkers is how many workers FromEdges sorts m edges over n vertices
// with, by the rule in its doc comment.
func buildWorkers(m, n int) int {
	return max(1, min(runtime.GOMAXPROCS(0), m/parallelEdges, maxBuildWorkers, 1+m/max(n, 1)))
}

// fromEdges is FromEdges over p workers, 1 <= p <= maxBuildWorkers.
func fromEdges(edges []Edge, n int, opt BuildOptions, p int) (*CSR, error) {
	if n > MaxVertices {
		return nil, fmt.Errorf("graph: %d vertices exceeds MaxVertices (%d)", n, MaxVertices)
	}
	b := csrBuild{edges: edges, n: n, p: p, opt: opt}
	b.offsets = make([]int64, n+1)
	b.hist = make([]int64, p*n)
	for w := 0; w < p; w++ {
		b.chunk[w+1] = (w + 1) * len(edges) / p
		b.bad[w] = -1
	}
	b.run()
	if b.err != nil {
		return nil, b.err
	}
	g := &CSR{Offsets: b.offsets, Targets: b.targets, Weights: b.weights}
	g.RecomputeTotalWeight()
	return g, nil
}

// csrBuild is one FromEdges call's state. Worker w owns chunk w of the
// edges, range w of the targets and range w of the rows; the passes between
// barriers touch disjoint memory, and the steps at a barrier run alone.
type csrBuild struct {
	edges []Edge
	n, p  int
	opt   BuildOptions
	err   error

	// hist is p histograms of n counters, worker w's at [w·n, (w+1)·n):
	// first chunk w's per-target arc counts, then its cursors into the
	// buckets. After the scatter the last one holds every bucket's end, and
	// the others count, then place, range w's arcs per row.
	hist []int64
	// offsets counts, then places, the last range's arcs per row, and ends
	// as the row starts.
	offsets []int64
	// src and srcW are the arcs' sources and weights bucketed by target.
	src  []Vertex
	srcW []float32
	arcs int64

	targets []Vertex
	weights []float32

	// chunk bounds the edge chunks, span the target ranges and rows the
	// row ranges; row range w starts at arc cut[w] before the merge.
	chunk, span, rows [maxBuildWorkers + 1]int
	cut               [maxBuildWorkers + 1]int64
	// bad is the index of chunk w's first invalid edge, or -1; kept is
	// the arcs row range w keeps after merging its duplicates.
	bad  [maxBuildWorkers]int
	kept [maxBuildWorkers]int64

	bar *barrier // nil with one worker
}

// barrier holds a parallel build's workers between passes.
type barrier struct {
	mu      sync.Mutex
	cond    sync.Cond
	arrived int
	round   int
}

// run runs every worker through the passes. A one-worker build stays on
// the calling goroutine and allocates no shared state.
func (b *csrBuild) run() {
	if b.p == 1 {
		b.work(0)
		return
	}
	shared := &struct {
		csrBuild
		barrier
		done sync.WaitGroup
	}{csrBuild: *b}
	shared.bar = &shared.barrier
	shared.cond.L = &shared.mu
	shared.done.Add(b.p - 1)
	for w := 1; w < b.p; w++ {
		go func() {
			defer shared.done.Done()
			shared.work(w)
		}()
	}
	shared.work(0)
	shared.done.Wait()
	*b = shared.csrBuild
	b.bar = nil
}

// work runs worker w through the passes. At the barrier after each pass
// the last worker to arrive runs the next serial step, then releases the
// others.
func (b *csrBuild) work(w int) {
	b.count(w)
	if b.arrive() {
		b.placeBuckets()
		b.release()
	}
	if b.err != nil {
		return
	}
	b.scatter(w)
	if b.arrive() {
		b.splitTargets()
		b.release()
	}
	b.countRows(w)
	if b.arrive() {
		b.placeRows()
		b.release()
	}
	b.replay(w)
	if b.arrive() {
		b.finishRows()
		b.release()
	}
	if !b.opt.SumDuplicates {
		return
	}
	b.merge(w)
	if b.arrive() {
		b.join()
		b.release()
	}
}

// arrive waits at the barrier. It returns true to the last worker to
// arrive, which must call release once it has run the serial step; the
// others return false once it has.
func (b *csrBuild) arrive() bool {
	if b.bar == nil {
		return true
	}
	bar := b.bar
	bar.mu.Lock()
	defer bar.mu.Unlock()
	bar.arrived++
	if bar.arrived == b.p {
		bar.arrived = 0
		return true
	}
	for round := bar.round; round == bar.round; {
		bar.cond.Wait()
	}
	return false
}

// release lets the workers waiting at the barrier go on.
func (b *csrBuild) release() {
	if b.bar == nil {
		return
	}
	b.bar.mu.Lock()
	b.bar.round++
	b.bar.mu.Unlock()
	b.bar.cond.Broadcast()
}

// count validates chunk w and counts its arcs per target. It stops at the
// chunk's first invalid edge.
func (b *csrBuild) count(w int) {
	h := b.hist[w*b.n : (w+1)*b.n]
	sym, drop := b.opt.Symmetrize, b.opt.DropSelfLoops
	for i := b.chunk[w]; i < b.chunk[w+1]; i++ {
		e := b.edges[i]
		if e.U == NoVertex || e.V == NoVertex || int(e.U) >= b.n || int(e.V) >= b.n {
			b.bad[w] = i
			return
		}
		if e.U == e.V && drop {
			continue
		}
		h[e.V]++
		if sym && e.U != e.V {
			h[e.U]++
		}
	}
}

// placeBuckets reports the first invalid edge, or turns the per-chunk
// counts into cursors: chunk c's cursor in bucket t starts after every arc
// of the lower buckets and of the lower chunks in t.
func (b *csrBuild) placeBuckets() {
	for _, i := range b.bad[:b.p] {
		if i < 0 {
			continue
		}
		e := b.edges[i]
		if e.U == NoVertex || e.V == NoVertex {
			b.err = fmt.Errorf("graph: edge (%d,%d) uses the reserved sentinel id", e.U, e.V)
		} else {
			b.err = fmt.Errorf("graph: edge (%d,%d) out of range for %d vertices", e.U, e.V, b.n)
		}
		return
	}
	at := int64(0)
	for t := 0; t < b.n; t++ {
		for c := t; c < len(b.hist); c += b.n {
			k := b.hist[c]
			b.hist[c] = at
			at += k
		}
	}
	b.arcs = at
	b.src = make([]Vertex, at)
	b.srcW = make([]float32, at)
}

// scatter buckets chunk w's arcs by target in input order.
func (b *csrBuild) scatter(w int) {
	h := b.hist[w*b.n : (w+1)*b.n]
	src, srcW := b.src, b.srcW
	sym, drop := b.opt.Symmetrize, b.opt.DropSelfLoops
	for _, e := range b.edges[b.chunk[w]:b.chunk[w+1]] {
		if e.U == e.V && drop {
			continue
		}
		p := h[e.V]
		h[e.V]++
		src[p], srcW[p] = e.U, e.W
		if sym && e.U != e.V {
			p = h[e.U]
			h[e.U]++
			src[p], srcW[p] = e.V, e.W
		}
	}
}

// bucketEnds is bucket t's end at index t; it is the last chunk's cursors
// once every chunk is scattered.
func (b *csrBuild) bucketEnds() []int64 { return b.hist[(b.p-1)*b.n:] }

// bucketStart is where bucket t starts, t <= n.
func (b *csrBuild) bucketStart(t int) int64 {
	if t == 0 {
		return 0
	}
	return b.bucketEnds()[t-1]
}

// splitTargets cuts the targets into p ranges of about equal arcs.
func (b *csrBuild) splitTargets() {
	ends := b.bucketEnds()
	b.span[b.p] = b.n
	for r := 1; r < b.p; r++ {
		goal := int64(r) * b.arcs / int64(b.p)
		b.span[r] = sort.Search(b.n, func(t int) bool { return ends[t] >= goal })
	}
}

// rowCounts is target range r's per-row counters, later its row cursors.
func (b *csrBuild) rowCounts(r int) []int64 {
	if r == b.p-1 {
		return b.offsets[:b.n]
	}
	return b.hist[r*b.n : (r+1)*b.n]
}

// countRows counts target range r's arcs per source row.
func (b *csrBuild) countRows(r int) {
	cnt := b.rowCounts(r)
	if r < b.p-1 {
		clear(cnt)
	}
	for _, u := range b.src[b.bucketStart(b.span[r]):b.bucketStart(b.span[r+1])] {
		cnt[u]++
	}
}

// placeRows turns the per-range row counts into cursors: a row holds range
// 0's arcs first, then range 1's, and so on.
func (b *csrBuild) placeRows() {
	at := int64(0)
	for u := 0; u < b.n; u++ {
		for c := u; c < len(b.hist)-b.n; c += b.n {
			k := b.hist[c]
			b.hist[c] = at
			at += k
		}
		k := b.offsets[u]
		b.offsets[u] = at
		at += k
	}
	b.targets = make([]Vertex, b.arcs)
	b.weights = make([]float32, b.arcs)
}

// replay places target range r's buckets, in ascending target order, into
// their sources' rows.
func (b *csrBuild) replay(r int) {
	cur := b.rowCounts(r)
	ends := b.bucketEnds()
	src, srcW := b.src, b.srcW
	targets, weights := b.targets, b.weights
	lo := b.bucketStart(b.span[r])
	for t := b.span[r]; t < b.span[r+1]; t++ {
		hi := ends[t]
		for p := lo; p < hi; p++ {
			u := src[p]
			q := cur[u]
			cur[u]++
			targets[q], weights[q] = Vertex(t), srcW[p]
		}
		lo = hi
	}
}

// finishRows restores the row starts: the last range's cursor in row u
// ended at row u+1's start. With SumDuplicates it also cuts the rows into p
// ranges of about equal arcs for merging.
func (b *csrBuild) finishRows() {
	copy(b.offsets[1:], b.offsets[:b.n])
	b.offsets[0] = 0
	if !b.opt.SumDuplicates {
		return
	}
	b.rows[b.p] = b.n
	for r := 1; r < b.p; r++ {
		goal := int64(r) * b.arcs / int64(b.p)
		b.rows[r] = sort.Search(b.n, func(u int) bool { return b.offsets[u] >= goal })
	}
	for r := 0; r <= b.p; r++ {
		b.cut[r] = b.offsets[b.rows[r]]
	}
}

// merge merges the runs of equal targets in row range r's rows, summing
// their weights in row order, and compacts the range in place from its
// first arc.
func (b *csrBuild) merge(r int) {
	offsets, targets, weights := b.offsets, b.targets, b.weights
	out := b.cut[r]
	hi := out
	for i := b.rows[r]; i < b.rows[r+1]; i++ {
		// Row i spans [offsets[i], offsets[i+1]) as built; offsets[i] is
		// rewritten to the compacted start only after it has been read,
		// and the range's last row ends at the next range's cut.
		lo := hi
		hi = b.cut[r+1]
		if i+1 < b.rows[r+1] {
			hi = offsets[i+1]
		}
		offsets[i] = out
		for p := lo; p < hi; {
			t := targets[p]
			w := weights[p]
			p++
			for p < hi && targets[p] == t {
				w += weights[p]
				p++
			}
			targets[out] = t
			weights[out] = w
			out++
		}
	}
	b.kept[r] = out - b.cut[r]
}

// join moves each merged row range down behind the one before it and
// shifts its row starts by as much.
func (b *csrBuild) join() {
	at := b.kept[0]
	for r := 1; r < b.p; r++ {
		from, k := b.cut[r], b.kept[r]
		copy(b.targets[at:], b.targets[from:from+k])
		copy(b.weights[at:], b.weights[from:from+k])
		for i := b.rows[r]; i < b.rows[r+1]; i++ {
			b.offsets[i] -= from - at
		}
		at += k
	}
	b.offsets[b.n] = at
	b.targets = b.targets[:at]
	b.weights = b.weights[:at]
}
