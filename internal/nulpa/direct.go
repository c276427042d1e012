package nulpa

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"nulpa/internal/engine"
	"nulpa/internal/graph"
	"nulpa/internal/hashtable"
	"nulpa/internal/simt"
)

// detectDirect executes the identical ν-LPA algorithm as a chunked multicore
// parallel loop — no lockstep simulation, no kernel-launch bookkeeping. It
// exists so runtime comparisons against CPU baselines measure the algorithm
// (pruning, Pick-Less, per-vertex hashtables) rather than the cost of
// simulating a GPU. Asynchrony between workers plays the role of asynchrony
// between SMs; community swaps are rarer than under lockstep but Pick-Less
// is still applied on the same schedule.
func detectDirect(g *graph.CSR, opt Options) (*Result, error) {
	n := g.NumVertices()
	arcs := g.NumArcs()
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	st := &runState{g: g, arena: newAnyArena(opt, 2*arcs), noPrune: opt.DisablePruning}
	res := &Result{DeviceBytes: st.arena.bytes()}
	if opt.TrackStats {
		res.HashStats = &hashtable.Stats{}
	}
	st.stats = res.HashStats
	st.countHash = st.stats != nil
	// One tally per worker: worker w counts into tallies[w] and
	// work.Shard(w) exactly as SM w does on the simt backend.
	st.GrowTallies(workers)
	st.labels = make([]uint32, n)
	st.processed = make([]uint32, n)
	for i := range st.labels {
		st.labels[i] = uint32(i)
	}
	if opt.CrossCheckEvery > 0 {
		st.prev = make([]uint32, n)
	}

	const chunk = 1024
	lr := engine.Loop(engine.LoopConfig{
		MaxIterations: opt.MaxIterations,
		Threshold:     opt.Tolerance * float64(n),
		Ctx:           opt.Context,
		Profiler:      opt.Profiler,
	}, func(_ context.Context, iter int) engine.IterOutcome {
		st.pickless = opt.PickLessEvery > 0 && iter%opt.PickLessEvery == 0
		crosscheck := opt.CrossCheckEvery > 0 && iter%opt.CrossCheckEvery == 0
		st.deltaN, st.reverts = 0, 0
		st.iterEdges, st.iterActive = 0, 0
		if crosscheck {
			copy(st.prev, st.labels)
		}
		hashBase := res.HashStats.Snapshot()
		var pruned int64
		if opt.Profiler != nil && !st.noPrune {
			pruned = countPruned(st.processed)
		}

		var cursor int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				tl, work, htl := &st.tallies[w], st.work.Shard(w), st.hashTally(w)
				cand := make([]uint32, chunk)
				for {
					c := atomic.AddInt64(&cursor, chunk) - chunk
					if c >= int64(n) {
						break
					}
					hi := c + chunk
					if hi > int64(n) {
						hi = int64(n)
					}
					// Two-phase, like one SIMT block: compute every
					// candidate in the chunk against a pre-move snapshot,
					// then apply the moves. Fully asynchronous chunk-local
					// sweeps would let Pick-Less iterations cascade one
					// small label across a community in a single pass.
					for v := c; v < hi; v++ {
						var e int64
						cand[v-c], e = candidateDirect(st, graph.Vertex(v), htl)
						if e > 0 {
							work.EdgeVisits += e
							work.ActiveVertices++
						}
					}
					for v := c; v < hi; v++ {
						if applyMoveDirect(st, graph.Vertex(v), cand[v-c]) {
							tl.flips++
							work.EdgeVisits += int64(st.g.Degree(graph.Vertex(v))) // wake scan
						}
					}
				}
			}(w)
		}
		wg.Wait()

		if crosscheck {
			crossCheckDirect(st, workers)
		}
		st.FoldTallies()
		st.TakeWork()

		gross, reverts := st.deltaN, st.reverts
		delta := gross - reverts
		res.Moves += delta
		res.Reverts += reverts
		res.DeltaHistory = append(res.DeltaHistory, delta)
		rec := IterStat{
			PickLess:       st.pickless,
			CrossCheck:     crosscheck,
			Moves:          gross,
			Reverts:        reverts,
			DeltaN:         delta,
			Pruned:         pruned,
			EdgeVisits:     st.iterEdges,
			ActiveVertices: st.iterActive,
		}
		if res.HashStats != nil {
			d := res.HashStats.Snapshot().Sub(hashBase)
			rec.HashAccumulates = d.Accumulates
			rec.HashProbes = d.Probes
			rec.HashCollisions = d.Collisions
			rec.HashFallbacks = d.Fallbacks
		}
		return engine.IterOutcome{
			Record:        rec,
			ForceContinue: st.pickless,
			Stop:          delta == 0 && opt.PickLessEvery == 1,
			Labels:        st.labels,
		}
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

// candidateDirect computes a vertex's most weighted neighbouring label, or
// hashtable.EmptyKey when the vertex is skipped (pruned or isolated). The
// second return is the number of edges scanned — zero exactly when the
// vertex was skipped, which doubles as the active-vertex signal. Probe
// accounting goes to the calling worker's tally tl (nil: not counting).
func candidateDirect(st *runState, i graph.Vertex, tl *hashtable.Tally) (uint32, int64) {
	if !st.noPrune && simt.AtomicLoadUint32(st.processed, int(i)) == 1 {
		return hashtable.EmptyKey, 0
	}
	deg := st.g.Degree(i)
	if deg == 0 {
		return hashtable.EmptyKey, 0
	}
	if !st.noPrune {
		simt.AtomicStoreUint32(st.processed, int(i), 1)
	}
	tb := st.arena.tableFor(st.g.Offset(i), deg)
	tb.clear(0, 1)
	ts, ws := st.g.Neighbors(i)
	for idx, j := range ts {
		if j == i {
			continue
		}
		cj := simt.AtomicLoadUint32(st.labels, int(j))
		tb.accumulate(cj, float64(ws[idx]), false, tl)
	}
	c, _, ok := tb.best()
	if !ok {
		return hashtable.EmptyKey, int64(deg)
	}
	return c, int64(deg)
}

// applyMoveDirect commits a candidate move under the Pick-Less rule and
// wakes the neighbourhood; reports whether the label changed.
func applyMoveDirect(st *runState, i graph.Vertex, c uint32) bool {
	if c == hashtable.EmptyKey {
		return false
	}
	cur := simt.AtomicLoadUint32(st.labels, int(i))
	if c == cur || (st.pickless && c > cur) {
		return false
	}
	simt.AtomicStoreUint32(st.labels, int(i), c)
	ts, _ := st.g.Neighbors(i)
	for _, j := range ts {
		simt.AtomicStoreUint32(st.processed, int(j), 0)
	}
	return true
}

// crossCheckDirect applies the Cross-Check revert pass with a parallel
// chunked loop; worker w counts its reverts into tallies[w].
func crossCheckDirect(st *runState, workers int) {
	n := len(st.labels)
	const chunk = 4096
	var cursor int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(tl *smTally) {
			defer wg.Done()
			for {
				c := atomic.AddInt64(&cursor, chunk) - chunk
				if c >= int64(n) {
					break
				}
				hi := c + chunk
				if hi > int64(n) {
					hi = int64(n)
				}
				for i := c; i < hi; i++ {
					cur := simt.AtomicLoadUint32(st.labels, int(i))
					if cur == st.prev[i] {
						continue
					}
					leader := simt.AtomicLoadUint32(st.labels, int(cur))
					if leader != cur {
						simt.AtomicStoreUint32(st.labels, int(i), st.prev[i])
						simt.AtomicStoreUint32(st.processed, int(i), 0)
						tl.reverts++
					}
				}
			}
		}(&st.tallies[w])
	}
	wg.Wait()
}
