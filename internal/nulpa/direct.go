package nulpa

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"nulpa/internal/engine"
	"nulpa/internal/graph"
	"nulpa/internal/hashtable"
)

// detectDirect executes the identical ν-LPA algorithm as a chunked multicore
// parallel loop — no lockstep simulation, no kernel-launch bookkeeping. It
// exists so runtime comparisons against CPU baselines measure the algorithm
// (pruning, Pick-Less, per-vertex hashtables) rather than the cost of
// simulating a GPU. Asynchrony between workers plays the role of asynchrony
// between SMs; community swaps are rarer than under lockstep but Pick-Less
// is still applied on the same schedule. The per-vertex work is the
// kernels' own: runState's pick, move and crossCheck.
func detectDirect(g *graph.CSR, opt Options) (*Result, error) {
	n := g.NumVertices()
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	st := newRunState(g, opt, nil, opt.Profiler != nil)
	res := &Result{DeviceBytes: st.arena.bytes()}
	// Worker w counts into tallies[w] exactly as SM w does
	// on the simt backend, under the same rule: only when profiled.
	st.GrowTallies(workers)
	for v := 0; v < n; v++ {
		if g.Degree(graph.Vertex(v)) > 0 {
			st.listed++
		}
	}

	const chunk = 1024
	cands := make([][]uint32, workers)
	for w := range cands {
		cands[w] = make([]uint32, chunk)
	}
	lr := engine.Loop(engine.LoopConfig{
		MaxIterations: opt.MaxIterations,
		Threshold:     opt.Tolerance * float64(n),
		Ctx:           opt.Context,
		Profiler:      opt.Profiler,
	}, func(_ context.Context, iter int) engine.IterOutcome {
		st.beginIter(&opt, iter)
		forChunks(n, chunk, workers, func(w, lo, hi int) {
			// Two-phase, like one SIMT block: compute every candidate in
			// the chunk against a pre-move snapshot, then apply the moves.
			// Fully asynchronous chunk-local sweeps would let Pick-Less
			// iterations cascade one small label across a community in a
			// single pass.
			cand := cands[w]
			for v := lo; v < hi; v++ {
				cand[v-lo] = hashtable.EmptyKey
				if g.Degree(graph.Vertex(v)) > 0 {
					cand[v-lo] = st.pick(graph.Vertex(v), w)
				}
			}
			for v := lo; v < hi; v++ {
				st.move(graph.Vertex(v), cand[v-lo], w)
			}
		})
		if st.crosscheck {
			forChunks(n, 4096, workers, func(w, lo, hi int) {
				for i := lo; i < hi; i++ {
					st.crossCheck(i, w)
				}
			})
		}
		st.FoldTallies()
		return st.endIter(&opt, IterStat{})
	})
	if lr.Err != nil {
		return nil, lr.Err
	}
	res.Iterations = lr.Iterations
	res.Converged = lr.Converged
	res.Trace = lr.Trace
	res.Duration = lr.Duration
	res.Labels = st.labels
	return res, nil
}

// forChunks runs body over [0, n) on workers goroutines that claim chunks
// of the range in turn; body gets the worker index and the chunk's bounds.
func forChunks(n, chunk, workers int, body func(w, lo, hi int)) {
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				lo := int(cursor.Add(int64(chunk))) - chunk
				if lo >= n {
					return
				}
				body(w, lo, min(lo+chunk, n))
			}
		}(w)
	}
	wg.Wait()
}
