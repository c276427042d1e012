// Package plp reimplements NetworKit's Parallel Label Propagation
// (NetworKit::PLP), the paper's multicore baseline, with the implementation
// details the paper discusses: unique labels per node, a boolean active-node
// flag vector, an OpenMP guided-schedule parallel for, per-vertex ordered-map
// label-weight counting (std::map in NetworKit, a Go map here), a tolerance
// of 1e-5 (the "threshold heuristic"), and an atomically updated count of
// changed vertices.
//
// The package's one entry point is its Detector, registered with the engine
// as "plp" and reached through engine.MustGet.
package plp

import (
	"context"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"nulpa/internal/engine"
	"nulpa/internal/graph"
	"nulpa/internal/telemetry"
)

func init() { engine.Register(Detector{}) }

// Detector is PLP's one entry point, registered as "plp". MaxIterations
// (0 means 100: NetworKit's updateThreshold loop is unbounded, a generous
// cap guards pathological inputs), Tolerance θ (0 means NetworKit's 1e-5)
// and Workers (0 means GOMAXPROCS) apply; Seed and BlockDim are ignored —
// PLP draws no random numbers. It takes no Extra.
type Detector struct{}

// Name implements engine.Detector.
func (Detector) Name() string { return "plp" }

// Detect runs parallel label propagation on g. The run stops when fewer
// than θ·N vertices change in an iteration. Candidate labels are scanned in
// ascending order — the literal std::map scan order of NetworKit — so with
// one worker runs are bit-identical.
func (Detector) Detect(g *graph.CSR, opt engine.Options) (*engine.Result, error) {
	if err := engine.NoExtra("plp", opt.Extra); err != nil {
		return nil, err
	}
	n := g.NumVertices()
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	maxIter := opt.MaxIterations
	if maxIter <= 0 {
		maxIter = 100
	}
	tol := opt.Tolerance
	if tol <= 0 {
		tol = 1e-5
	}
	labels := make([]uint32, n)
	for i := range labels {
		labels[i] = uint32(i)
	}
	// Active flags are touched concurrently (a worker deactivates its own
	// vertex while neighbours reactivate it), so they are 32-bit words
	// accessed atomically rather than NetworKit's raw bool vector.
	active := make([]uint32, n)
	for i := range active {
		if g.Degree(graph.Vertex(i)) > 0 {
			active[i] = 1
		}
	}
	theta := tol * float64(n)
	if theta < 1 {
		theta = 1 // NetworKit floors the threshold at one node
	}

	lr := engine.Loop(engine.LoopConfig{
		MaxIterations: maxIter,
		Threshold:     theta,
		Ctx:           opt.Context,
		Profiler:      opt.Profiler,
	}, func(_ context.Context, iter int) engine.IterOutcome {
		var updated, edges, processed int64
		runGuided(n, workers, func(lo, hi int, sc *scratch) {
			var local, localEdges, localActive int64
			for v := lo; v < hi; v++ {
				if atomicLoad(active, v) == 0 {
					continue
				}
				atomicStore(active, v, 0)
				u := graph.Vertex(v)
				ts, ws := g.Neighbors(u)
				localEdges += int64(len(ts))
				localActive++
				acc := sc.acc
				clear(acc)
				for k, w := range ts {
					if w == u {
						continue
					}
					acc[atomicLoad(labels, int(w))] += float64(ws[k])
				}
				if len(acc) == 0 {
					continue
				}
				cur := labels[v]
				// The literal std::map scan: ascending label order, first
				// strict maximum wins.
				best, bestW := cur, -1.0
				sc.keys = sc.keys[:0]
				for c := range acc {
					sc.keys = append(sc.keys, c)
				}
				slices.Sort(sc.keys)
				for _, c := range sc.keys {
					if w := acc[c]; w > bestW {
						best, bestW = c, w
					}
				}
				// Keep the current label when it ties the maximum
				// (NetworKit's stability rule).
				if w, ok := acc[cur]; ok && w == bestW {
					best = cur
				}
				if best != cur {
					atomicStore(labels, v, best)
					local++
					localEdges += int64(len(ts)) // reactivation scan
					for _, w := range ts {
						atomicStore(active, int(w), 1)
					}
				}
			}
			if local != 0 {
				atomic.AddInt64(&updated, local)
			}
			atomic.AddInt64(&edges, localEdges)
			atomic.AddInt64(&processed, localActive)
		})
		return engine.IterOutcome{Record: telemetry.IterRecord{
			Moves: updated, DeltaN: updated,
			EdgeVisits: edges, ActiveVertices: processed,
		}, Labels: labels}
	})
	return lr.Result(labels)
}

// scratch is the per-worker reusable state: the map accumulator (NetworKit's
// per-call std::map, hoisted as NetworKit effectively does through the
// allocator) and the sorted-key buffer of the ascending scan.
type scratch struct {
	acc  map[uint32]float64
	keys []uint32
}

// runGuided mimics OpenMP's guided schedule: chunk sizes start at
// remaining/(2·workers) and shrink as the iteration space drains, with a
// floor of 64. Each worker owns a reusable scratch.
func runGuided(n, workers int, body func(lo, hi int, sc *scratch)) {
	var cursor int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc := &scratch{acc: make(map[uint32]float64)}
			for {
				lo := atomic.LoadInt64(&cursor)
				if lo >= int64(n) {
					return
				}
				remaining := int64(n) - lo
				chunk := remaining / int64(2*workers)
				if chunk < 64 {
					chunk = 64
				}
				hi := lo + chunk
				if hi > int64(n) {
					hi = int64(n)
				}
				if !atomic.CompareAndSwapInt64(&cursor, lo, hi) {
					continue
				}
				body(int(lo), int(hi), sc)
			}
		}()
	}
	wg.Wait()
}

func atomicLoad(p []uint32, i int) uint32     { return atomic.LoadUint32(&p[i]) }
func atomicStore(p []uint32, i int, v uint32) { atomic.StoreUint32(&p[i], v) }
