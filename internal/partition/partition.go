// Package partition implements balanced k-way graph partitioning with
// size-constrained label propagation — the application the paper's
// conclusion singles out ("the applicability of ν-LPA for
// performance-critical applications, such as partitioning of large graphs.
// We plan to look into this in the future") and the technique behind the
// LPA-based partitioners its related-work section surveys (PuLP, SCLaP,
// XtraPuLP).
//
// The algorithm is LPA with two changes: the label universe is the k parts
// (not the vertices), and a move is admitted only while the destination
// part stays under its capacity (1+ε)·N/k. Each refinement sweeps the
// vertices in order on one goroutine, so the balance constraint holds
// exactly at all times. Parallelism is across restarts, never within a
// sweep, and the result does not depend on the worker count.
//
// A sweep evaluates only the active set — FLPA's rule of re-examining just
// the vertices whose neighbourhood changed. Every vertex starts a restart
// stale; evaluating it clears the flag unless its best part was full (a
// capacity refusal), and a move marks every neighbour stale. Skipping a
// clean vertex is exact. A decision reads the neighbours' parts (which fix
// the touched order and the per-part weights), the vertex's own part, and,
// only when another part is better, that part's size. A clean vertex was
// last evaluated under the same neighbour parts and either found its own
// part best or moved to the most connected part; either way it would stay,
// whatever the sizes. So a sweep makes exactly the moves a full sweep
// makes, in the same order, and the parts, sweep counts, convergence and
// cut are those of evaluating every vertex every sweep.
//
// A decision reads the vertex's row once, adding each arc's weight to its
// part with no per-arc bookkeeping, and applies the first-touch rule (the
// first strictly most connected part in the order the arcs reach the
// parts) after the loop: by a scan of the k parts when that scan can decide, by a
// fold over the row when it cannot (see moveVertex). Each restart's cut is
// one branch-free pass over the arcs (quality.EdgeCut).
package partition

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"nulpa/internal/engine"
	"nulpa/internal/graph"
	"nulpa/internal/quality"
)

// Options configure a partitioning run.
type Options struct {
	// Parts is k, the number of parts (≥ 1).
	Parts int
	// Imbalance is ε: each part holds at most (1+ε)·⌈N/k⌉ vertices
	// (default 0.05).
	Imbalance float64
	// MaxIterations caps refinement sweeps (default 20).
	MaxIterations int
	// Tolerance stops refinement once fewer than Tolerance·N vertices move
	// in a sweep (default 0.001).
	Tolerance float64
	// Seed drives the initial assignment shuffle.
	Seed int64
	// Restarts runs that many independent refinements (seeds Seed, Seed+1,
	// …) and keeps the lowest-cut result — the multi-start practice of the
	// PuLP family, where initial-assignment luck dominates final cut
	// quality. 0 or 1 means a single run.
	Restarts int
	// Workers bounds how many restarts run at once; 0 selects GOMAXPROCS.
	// Every restart sweeps on one goroutine, so the result is the same at
	// any Workers.
	Workers int
	// Context, when set, cancels the run within 1024 vertices of a sweep. An
	// interrupted run returns engine.ErrCanceled or engine.ErrDeadline,
	// the same typed contract the detectors follow.
	Context context.Context
}

// DefaultOptions returns a PuLP-like configuration.
func DefaultOptions(parts int) Options {
	return Options{Parts: parts, Imbalance: 0.05, MaxIterations: 20, Tolerance: 0.001, Seed: 1}
}

// Result reports a completed partitioning run.
type Result struct {
	// Parts maps each vertex to a part in [0, k).
	Parts []uint32
	// CutWeight is the total weight of arcs crossing parts (each
	// undirected edge counted twice).
	CutWeight float64
	// CutFraction is CutWeight over total arc weight.
	CutFraction float64
	// Imbalance is max part size over the ideal ⌈N/k⌉, minus 1.
	Imbalance  float64
	Iterations int
	Converged  bool
	Duration   time.Duration
}

// Partition computes a balanced k-way partition of g, keeping the lowest-cut
// result over Options.Restarts independent refinements.
func Partition(g *graph.CSR, opt Options) (*Result, error) {
	start := time.Now()
	best, err := bestRestart(g, opt)
	if err != nil {
		return nil, err
	}
	best.Duration = time.Since(start)
	return best, nil
}

// bestRestart validates opt and runs the restarts.
func bestRestart(g *graph.CSR, opt Options) (*Result, error) {
	n := g.NumVertices()
	k := opt.Parts
	if k < 1 {
		return nil, fmt.Errorf("partition: Parts = %d, want >= 1", k)
	}
	if opt.Imbalance < 0 {
		return nil, fmt.Errorf("partition: negative Imbalance %g", opt.Imbalance)
	}
	if opt.MaxIterations <= 0 {
		opt.MaxIterations = 20
	}
	if opt.Context == nil {
		opt.Context = context.Background()
	}
	if n == 0 {
		return &Result{Parts: []uint32{}, Converged: true}, nil
	}
	k = min(k, n)

	// Trivial partitions need no refinement: with k = 1 every vertex shares
	// part 0, and with k = n (including k clamped down from above, and the
	// singleton graph) each vertex is its own part. Returning early keeps the
	// capacity math out of its degenerate corners (capacity 1 parts that can
	// never admit a move).
	if k == 1 || k == n {
		parts := make([]uint32, n)
		if k == n {
			for v := range parts {
				parts[v] = uint32(v)
			}
		}
		res := &Result{Parts: parts, Converged: true}
		res.CutWeight, res.CutFraction = quality.EdgeCut(g, parts)
		return res, nil
	}

	ideal, capacity := partSizes(n, k, opt.Imbalance)

	// Restarts run concurrently, each on one goroutine, and are then
	// selected in index order exactly as a sequential loop would: the
	// lowest cut wins, a tie goes to the lower index, and the first
	// zero-cut restart or error ends the search. Restarts are claimed in
	// index order, so once one reaches zero cut or fails every unclaimed
	// restart has a higher index and cannot be selected; none of them is
	// started.
	restarts := max(opt.Restarts, 1)
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	results := make([]*Result, restarts)
	errs := make([]error, restarts)
	var next atomic.Int64
	var done atomic.Bool
	work := func() {
		for !done.Load() {
			r := int(next.Add(1) - 1)
			if r >= restarts {
				return
			}
			results[r], errs[r] = refine(g, opt, opt.Seed+int64(r), k, ideal, capacity)
			if errs[r] != nil || results[r].CutWeight == 0 {
				done.Store(true)
			}
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < min(workers, restarts); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()

	var best *Result
	iters := 0
	for r := 0; r < restarts; r++ {
		if errs[r] != nil {
			return nil, errs[r]
		}
		res := results[r]
		iters += res.Iterations
		if best == nil || res.CutWeight < best.CutWeight {
			best = res
		}
		if best.CutWeight == 0 {
			break // a zero-cut partition cannot be improved
		}
	}
	best.Iterations = iters
	return best, nil
}

// partSizes returns the ideal part size ⌈n/k⌉ and the capacity of a part.
// Capacity rounds up and always leaves at least one slot of slack over the
// ideal size: with parts exactly full no move can ever be admitted and
// refinement would freeze at the random initial assignment.
func partSizes(n, k int, imbalance float64) (ideal, capacity int) {
	ideal = (n + k - 1) / k
	capacity = int(math.Ceil(float64(ideal) * (1 + imbalance)))
	return ideal, max(capacity, ideal+1)
}

// refine runs one seeded assignment-plus-refinement pass: sequential
// sweeps in vertex order over the stale vertices, each moving to its most
// connected part while that part has room.
func refine(g *graph.CSR, opt Options, seed int64, k, ideal, capacity int) (*Result, error) {
	n := g.NumVertices()
	ctx := opt.Context
	// Initial assignment: contiguous blocks of a shuffled vertex order —
	// balanced by construction, randomized by seed.
	rng := rand.New(rand.NewSource(seed))
	order := rng.Perm(n)
	parts := make([]uint32, n)
	sizes := make([]int, k)
	for idx, v := range order {
		p := uint32(min(idx/ideal, k-1))
		parts[v] = p
		sizes[p]++
	}

	res := &Result{}
	conn := make([]float64, k+1)
	stale := make([]bool, n)
	for v := range stale {
		stale[v] = true
	}
	for iter := 0; iter < opt.MaxIterations; iter++ {
		moves := 0
		for v := 0; v < n; v++ {
			// Cancellation is checked every 1024 vertices, so a canceled
			// sweep stops within that much work.
			if v%1024 == 0 && ctx.Err() != nil {
				return nil, engine.CtxErr(ctx.Err())
			}
			if !stale[v] {
				continue
			}
			switch moveVertex(g, graph.Vertex(v), parts, sizes, conn, capacity) {
			case stay:
				stale[v] = false
			case moved:
				moves++
				ts, _ := g.Neighbors(graph.Vertex(v))
				for _, j := range ts {
					stale[j] = true
				}
				stale[v] = false
			}
		}
		res.Iterations = iter + 1
		if float64(moves) < opt.Tolerance*float64(n) {
			res.Converged = true
			break
		}
	}
	res.Parts = parts
	res.CutWeight, res.CutFraction = quality.EdgeCut(g, parts)
	res.Imbalance = float64(slices.Max(sizes))/float64(ideal) - 1
	return res, nil
}

// decision is moveVertex's outcome for one vertex.
type decision uint8

const (
	// stay: v's own part is its most connected part.
	stay decision = iota
	// refused: a more connected part exists but is full.
	refused
	// moved: v moved to its most connected part.
	moved
)

// moveVertex relocates v to its most connected part if the move reduces cut
// and the destination part is below capacity. conn holds one zero per part
// and, at index k = len(conn)-1, a zero for v's self loops; they are zero
// again on return.
//
// The rule is the first-touch rule: the candidates are the parts of v's
// neighbours other than v, in the order their first arc reaches them, and
// a candidate replaces the best so far, starting from v's own part, only
// if strictly more connected. The arcs are summed in one pass with no
// touched-list bookkeeping: its one test, for a self loop, which adds into
// conn[k], all but never fires. The rule is then settled by heaviestPart's
// scan over the parts when the row has at least k arcs, and by
// firstTouched's fold over the row when it is shorter or the scan cannot
// decide (an exact tie, or a negative or NaN conn[cur]). A short row also
// resets only the parts its arcs reached: always scanning and clearing all
// k parts made BenchmarkPartition's road k=16 case 2.5× slower on a
// 2-vCPU Xeon host.
func moveVertex(g *graph.CSR, v graph.Vertex, parts []uint32, sizes []int, conn []float64, capacity int) decision {
	ts, ws := g.Neighbors(v)
	if len(ts) == 0 {
		return stay
	}
	k := len(conn) - 1
	for i, j := range ts {
		p := parts[j]
		if j == v {
			p = uint32(k)
		}
		conn[p] += float64(ws[i])
	}
	cur := parts[v]
	dense := len(ts) >= k
	best, ok := cur, false
	if dense {
		best, ok = heaviestPart(conn[:k], cur)
	}
	if !ok {
		best = firstTouched(ts, parts, conn, cur)
	}
	// Reset the accumulators for the next vertex.
	if dense {
		clear(conn)
	} else {
		for _, j := range ts {
			conn[parts[j]] = 0
		}
		conn[k] = 0
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

// heaviestPart applies the first-touch rule by a scan of the k parts'
// connections conn. A part no arc reached has conn 0 and is no candidate,
// so the scan decides only when conn[cur] >= 0, where a strictly heavier
// part must have been reached, and the heaviest is unique, so touch order
// cannot matter; ok is false otherwise.
func heaviestPart(conn []float64, cur uint32) (best uint32, ok bool) {
	bestW := conn[cur]
	if !(bestW >= 0) {
		return cur, false
	}
	best = cur
	tied := false
	for p, w := range conn {
		if w > bestW {
			best, bestW, tied = uint32(p), w, false
		} else if w == bestW && uint32(p) != best {
			tied = true
		}
	}
	return best, best == cur || !tied
}

// firstTouched applies the first-touch rule by a fold over v's row ts in
// arc order: a part's first arc is where it first competes, and a later
// arc to the same part, v's own part included, cannot beat the running
// best again, because the best's weight never falls.
func firstTouched(ts []graph.Vertex, parts []uint32, conn []float64, cur uint32) uint32 {
	best, bestW := cur, conn[cur]
	for _, j := range ts {
		if p := parts[j]; conn[p] > bestW {
			best, bestW = p, conn[p]
		}
	}
	return best
}
