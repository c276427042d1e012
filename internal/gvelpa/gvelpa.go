// Package gvelpa reimplements GVE-LPA (Sahu 2023), the multicore CPU LPA
// that ν-LPA builds on: asynchronous label propagation with per-thread
// collision-free hashtables — a compact keys list plus a full-size |V|
// values array per thread, kept well separated in memory — vertex pruning,
// a per-iteration tolerance of 0.05, and at most 20 iterations. Its
// O(T·N + M) space is exactly the reason the paper had to design the
// per-vertex O(M) hashtable for the GPU.
//
// The package's one entry point is its Detector, registered with the engine
// as "gvelpa" and reached through engine.MustGet.
package gvelpa

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"nulpa/internal/engine"
	"nulpa/internal/graph"
	"nulpa/internal/telemetry"
)

func init() { engine.Register(Detector{}) }

// Detector is GVE-LPA's one entry point, registered as "gvelpa".
// MaxIterations (0 means the published 20), Tolerance τ (0 means the
// published 0.05) and Workers (0 means GOMAXPROCS) apply; Seed and BlockDim
// are ignored — the rotation tie-break is deterministic by construction.
// Result.MemoryBytes is the per-thread hashtables' O(T·N) bytes, the term
// the GPU design eliminates. It takes no Extra.
type Detector struct{}

// Name implements engine.Detector.
func (Detector) Name() string { return "gvelpa" }

// threadTable is the per-thread collision-free hashtable: values is indexed
// directly by label (size |V|), keys records which labels are occupied so
// clearing is O(degree) not O(|V|).
type threadTable struct {
	keys   []uint32
	values []float64
}

func newThreadTable(n int) *threadTable {
	return &threadTable{keys: make([]uint32, 0, 64), values: make([]float64, n)}
}

func (t *threadTable) accumulate(label uint32, w float64) {
	if t.values[label] == 0 {
		t.keys = append(t.keys, label)
	}
	t.values[label] += w
}

// best returns the first label with the highest weight, scanning the keys
// list from a per-vertex rotation point. The keys list is in adjacency
// (ascending id) order, so a plain front-to-back scan would always break
// ties toward the smallest neighbouring label — a globally consistent bias
// that lets one label cascade across community boundaries in a single
// asynchronous sweep. Rotating the start by the vertex id de-biases the
// tie-break the same way ν-LPA's hash-slot scan order does.
func (t *threadTable) best(v graph.Vertex) (uint32, bool) {
	n := len(t.keys)
	if n == 0 {
		return 0, false
	}
	start := int(v) % n
	best, bestW := t.keys[start], t.values[t.keys[start]]
	for i := 1; i < n; i++ {
		k := t.keys[(start+i)%n]
		w := t.values[k]
		if w > bestW {
			best, bestW = k, w
		}
	}
	return best, true
}

func (t *threadTable) clear() {
	for _, k := range t.keys {
		t.values[k] = 0
	}
	t.keys = t.keys[:0]
}

// Detect runs GVE-LPA on g.
func (Detector) Detect(g *graph.CSR, opt engine.Options) (*engine.Result, error) {
	if err := engine.NoExtra("gvelpa", opt.Extra); err != nil {
		return nil, err
	}
	n := g.NumVertices()
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	maxIter := opt.MaxIterations
	if maxIter <= 0 {
		maxIter = 20
	}
	tol := opt.Tolerance
	if tol <= 0 {
		tol = 0.05
	}
	labels := make([]uint32, n)
	for i := range labels {
		labels[i] = uint32(i)
	}
	processed := make([]uint32, n)
	tables := make([]*threadTable, workers)
	for i := range tables {
		tables[i] = newThreadTable(n)
	}

	const chunk = 2048
	lr := engine.Loop(engine.LoopConfig{
		MaxIterations: maxIter,
		Threshold:     tol * float64(n),
		Ctx:           opt.Context,
		Profiler:      opt.Profiler,
	}, func(_ context.Context, iter int) engine.IterOutcome {
		var changed, edges, visited int64
		var cursor int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				tbl := tables[w]
				var local, localEdges, localActive int64
				for {
					c := atomic.AddInt64(&cursor, chunk) - chunk
					if c >= int64(n) {
						break
					}
					hi := c + chunk
					if hi > int64(n) {
						hi = int64(n)
					}
					for v := c; v < hi; v++ {
						if atomic.LoadUint32(&processed[v]) == 1 {
							continue
						}
						u := graph.Vertex(v)
						ts, ws := g.Neighbors(u)
						if len(ts) == 0 {
							continue
						}
						atomic.StoreUint32(&processed[v], 1)
						localEdges += int64(len(ts))
						localActive++
						tbl.clear()
						for k, j := range ts {
							if j == u {
								continue
							}
							tbl.accumulate(atomic.LoadUint32(&labels[j]), float64(ws[k]))
						}
						best, ok := tbl.best(u)
						if !ok || best == labels[v] {
							continue
						}
						atomic.StoreUint32(&labels[v], best)
						local++
						localEdges += int64(len(ts)) // wake-up scan
						for _, j := range ts {
							atomic.StoreUint32(&processed[j], 0)
						}
					}
				}
				if local != 0 {
					atomic.AddInt64(&changed, local)
				}
				atomic.AddInt64(&edges, localEdges)
				atomic.AddInt64(&visited, localActive)
			}(w)
		}
		wg.Wait()
		return engine.IterOutcome{Record: telemetry.IterRecord{
			Moves: changed, DeltaN: changed,
			EdgeVisits: edges, ActiveVertices: visited,
		}, Labels: labels}
	})
	res, err := lr.Result(labels)
	if err != nil {
		return nil, err
	}
	res.MemoryBytes = int64(workers) * int64(n) * 8
	return res, nil
}
