package graph

import (
	"fmt"
	"runtime"
	"slices"
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
// The arcs are bucketed by source straight into the CSR's rows, so every row
// holds its arcs in input order (an edge's reverse arc sits in its target's
// row at the edge's input position). Each row is then sorted by target with
// a stable sort while it is in cache. Within a row, parallel arcs therefore
// keep their input order, and with SumDuplicates their weights are summed in
// that order.
//
// m edges over n vertices are built by
// min(GOMAXPROCS, m/parallelEdges, maxBuildWorkers, 1+m/n) workers, at least
// one. Each extra worker holds a histogram of n counters, so the last cap
// keeps those histograms no larger than the edge list. One worker runs the
// passes on the calling goroutine alone.
//
// The graph is the same at every worker count. Worker c counts a contiguous
// chunk of the edges per source row, and its cursor in row u starts after
// the lower chunks' arcs in u, so the scatter leaves every row in input
// order. Each worker then sorts, and with SumDuplicates merges, a range of
// rows of about equal arcs, each row's weights summed in row order, and
// TotalWeight is one in-order sum over the result.
func FromEdges(edges []Edge, n int, opt BuildOptions) (*CSR, error) {
	return fromEdges(edges, n, opt, buildWorkers(len(edges), n))
}

const (
	// parallelEdges is the fewest input edges that earn a build worker, so
	// an input below twice this is built on the calling goroutine alone.
	parallelEdges = 1 << 17
	// maxBuildWorkers caps a build's workers, which bounds the histogram
	// memory and sizes csrBuild's per-worker arrays. Builds above 2 workers
	// have been checked for correctness but their speed is unmeasured.
	maxBuildWorkers = 8
	// shortRow is the longest row sorted by insertion; longer rows go to
	// sortLong.
	shortRow = 64
)

// buildWorkers is how many workers FromEdges builds m edges over n vertices
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
	b.hist = make([]int64, (p-1)*n)
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

// csrBuild is one FromEdges call's state. Worker w owns chunk w of the edges
// and range w of the rows; the passes between barriers touch disjoint
// memory, and the steps at a barrier run alone.
type csrBuild struct {
	edges []Edge
	n, p  int
	opt   BuildOptions
	err   error

	// hist is the first p−1 chunks' per-row arc counts, then cursors, chunk
	// w's at [w·n, (w+1)·n).
	hist []int64
	// offsets is the last chunk's histogram, and ends as the row starts.
	offsets []int64

	targets []Vertex
	weights []float32

	// chunk bounds the edge chunks and rows the row ranges; row range w
	// starts at arc cut[w] before the merge.
	chunk, rows [maxBuildWorkers + 1]int
	cut         [maxBuildWorkers + 1]int64
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
		b.place()
		b.release()
	}
	if b.err != nil {
		return
	}
	b.scatter(w)
	if b.arrive() {
		b.finishRows()
		b.release()
	}
	b.sortRows(w)
	if !b.opt.SumDuplicates {
		return
	}
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

// rowCounts is chunk w's per-row counters, later its row cursors.
func (b *csrBuild) rowCounts(w int) []int64 {
	if w == b.p-1 {
		return b.offsets[:b.n]
	}
	return b.hist[w*b.n : (w+1)*b.n]
}

// count validates chunk w and counts its arcs per source row. It stops at
// the chunk's first invalid edge.
func (b *csrBuild) count(w int) {
	h := b.rowCounts(w)
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
		h[e.U]++
		if sym && e.U != e.V {
			h[e.V]++
		}
	}
}

// place reports the first invalid edge, or turns the per-chunk counts into
// cursors: chunk c's cursor in row u starts after every arc of the lower
// rows and of the lower chunks in u.
func (b *csrBuild) place() {
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
	for u := 0; u < b.n; u++ {
		for c := u; c < len(b.hist); c += b.n {
			k := b.hist[c]
			b.hist[c] = at
			at += k
		}
		k := b.offsets[u]
		b.offsets[u] = at
		at += k
	}
	b.targets = make([]Vertex, at)
	b.weights = make([]float32, at)
}

// scatter writes chunk w's arcs into their sources' rows in input order.
func (b *csrBuild) scatter(w int) {
	cur := b.rowCounts(w)
	targets, weights := b.targets, b.weights
	sym, drop := b.opt.Symmetrize, b.opt.DropSelfLoops
	for _, e := range b.edges[b.chunk[w]:b.chunk[w+1]] {
		if e.U == e.V && drop {
			continue
		}
		q := cur[e.U]
		cur[e.U]++
		targets[q], weights[q] = e.V, e.W
		if sym && e.U != e.V {
			q = cur[e.V]
			cur[e.V]++
			targets[q], weights[q] = e.U, e.W
		}
	}
}

// finishRows restores the row starts: the last chunk's cursor in row u
// ended at row u+1's start. It then cuts the rows into p ranges of about
// equal arcs for sorting.
func (b *csrBuild) finishRows() {
	copy(b.offsets[1:], b.offsets[:b.n])
	b.offsets[0] = 0
	b.rows[b.p] = b.n
	for r := 1; r < b.p; r++ {
		goal := int64(r) * b.offsets[b.n] / int64(b.p)
		b.rows[r] = sort.Search(b.n, func(u int) bool { return b.offsets[u] >= goal })
	}
	for r := 0; r <= b.p; r++ {
		b.cut[r] = b.offsets[b.rows[r]]
	}
}

// sortRows stably sorts row range r's rows by target, one row at a time so
// that each is sorted while it is in cache. With SumDuplicates it merges
// each row's runs of equal targets, summing their weights in row order,
// and compacts the range in place from its first arc.
func (b *csrBuild) sortRows(r int) {
	var keys []uint64
	var kw []float32
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
		ts, ws := targets[lo:hi], weights[lo:hi]
		// Insertion keeps equal targets in row order and costs one shift
		// per inversion, so it sorts only short rows.
		if len(ts) > shortRow {
			keys, kw = sortLong(ts, ws, keys, kw)
		} else {
			for j := 1; j < len(ts); j++ {
				t, w := ts[j], ws[j]
				at := j
				for ; at > 0 && ts[at-1] > t; at-- {
					ts[at], ws[at] = ts[at-1], ws[at-1]
				}
				ts[at], ws[at] = t, w
			}
		}
		if !b.opt.SumDuplicates {
			out = hi
			continue
		}
		for p := 0; p < len(ts); {
			t, w := ts[p], ws[p]
			for p++; p < len(ts) && ts[p] == t; p++ {
				w += ws[p]
			}
			targets[out], weights[out] = t, w
			out++
		}
	}
	b.kept[r] = out - b.cut[r]
}

// sortLong stably sorts a row longer than shortRow by target, carrying its
// weights. Rows often end in a sorted run (the reverse arcs of edges given
// in source order), so only the arcs before that run are sorted, by
// slices.Sort over the keys target<<32 | position, and then merged with it.
// keys and kw are scratch that it grows at least twofold and returns. A
// row of 2³² or more arcs, whose positions do not fit in a key, is sorted by
// sort.Stable instead.
func sortLong(ts []Vertex, ws []float32, keys []uint64, kw []float32) ([]uint64, []float32) {
	if int64(len(ts)) >= 1<<32 {
		sort.Stable(rowSorter{ts, ws})
		return keys, kw
	}
	run := len(ts) - 1
	for run > 0 && ts[run-1] <= ts[run] {
		run--
	}
	if run == 0 {
		return keys, kw
	}
	if run > len(keys) {
		size := max(run, 2*len(keys))
		keys, kw = make([]uint64, size), make([]float32, size)
	}
	k, w := keys[:run], kw[:run]
	for j, t := range ts[:run] {
		k[j] = uint64(t)<<32 | uint64(j)
	}
	slices.Sort(k)
	for j, key := range k {
		w[j] = ws[uint32(key)]
	}
	// Merge the sorted head, now in k and w, with the run, taking the head's
	// arc first among equal targets; a write never passes the run's next
	// unread arc.
	j, at := run, 0
	for i := range k {
		t := Vertex(k[i] >> 32)
		for ; j < len(ts) && ts[j] < t; j++ {
			ts[at], ws[at] = ts[j], ws[j]
			at++
		}
		ts[at], ws[at] = t, w[i]
		at++
	}
	return keys, kw
}

// rowSorter sorts a row by target, carrying its weights, for sort.Stable.
type rowSorter struct {
	t []Vertex
	w []float32
}

func (s rowSorter) Len() int           { return len(s.t) }
func (s rowSorter) Less(i, j int) bool { return s.t[i] < s.t[j] }
func (s rowSorter) Swap(i, j int) {
	s.t[i], s.t[j] = s.t[j], s.t[i]
	s.w[i], s.w[j] = s.w[j], s.w[i]
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
