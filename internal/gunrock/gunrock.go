// Package gunrock reimplements the Gunrock-style GPU LPA the paper compares
// against: a synchronous (Jacobi) data-parallel label propagation where
// every vertex picks its new label from the *previous* iteration's labels
// and all updates commit at once. Synchronous updates are the natural fit
// for bulk-parallel GPU frameworks, but they oscillate on symmetric
// structures and produce the very low modularity the paper observes for
// Gunrock LPA (Figure 6c).
//
// The package's one entry point is its Detector, registered with the engine
// as "gunrock" and reached through engine.MustGet.
package gunrock

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

// defaultMaxIterations is Gunrock's small fixed iteration budget.
const defaultMaxIterations = 10

// Detector is the Gunrock-style LPA's one entry point, registered as
// "gunrock". MaxIterations (0 means 10) and Workers (0 means GOMAXPROCS)
// apply; Tolerance, Seed and BlockDim are ignored — the algorithm is a
// fixed-rule Jacobi iteration with a smallest-label tie-break and a "no
// vertex changed" stopping rule (Converged). It takes no Extra.
type Detector struct{}

// Name implements engine.Detector.
func (Detector) Name() string { return "gunrock" }

// Detect runs synchronous label propagation on g. Each iteration's moves
// count the labels that change at its synchronous commit.
func (Detector) Detect(g *graph.CSR, opt engine.Options) (*engine.Result, error) {
	if err := engine.NoExtra("gunrock", opt.Extra); err != nil {
		return nil, err
	}
	n := g.NumVertices()
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	maxIter := opt.MaxIterations
	if maxIter <= 0 {
		maxIter = defaultMaxIterations
	}
	cur := make([]uint32, n)
	next := make([]uint32, n)
	for i := range cur {
		cur[i] = uint32(i)
	}
	const chunk = 2048
	// Threshold 1 is the strict "no vertex changed" rule: ΔN < 1 ⇔ ΔN = 0.
	lr := engine.Loop(engine.LoopConfig{
		MaxIterations: maxIter,
		Threshold:     1,
		Ctx:           opt.Context,
		Profiler:      opt.Profiler,
	}, func(_ context.Context, iter int) engine.IterOutcome {
		var changed, edges, visited int64
		var cursor int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				acc := make(map[uint32]float64)
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
						u := graph.Vertex(v)
						ts, ws := g.Neighbors(u)
						if len(ts) == 0 {
							next[v] = cur[v]
							continue
						}
						localEdges += int64(len(ts))
						localActive++
						clear(acc)
						for k, j := range ts {
							if j == u {
								continue
							}
							acc[cur[j]] += float64(ws[k])
						}
						best, bestW := cur[v], -1.0
						for lab, wgt := range acc {
							if wgt > bestW || (wgt == bestW && lab < best) {
								best, bestW = lab, wgt
							}
						}
						next[v] = best
						if best != cur[v] {
							local++
						}
					}
				}
				if local != 0 {
					atomic.AddInt64(&changed, local)
				}
				atomic.AddInt64(&edges, localEdges)
				atomic.AddInt64(&visited, localActive)
			}()
		}
		wg.Wait()
		cur, next = next, cur
		return engine.IterOutcome{Record: telemetry.IterRecord{
			Moves: changed, DeltaN: changed,
			EdgeVisits: edges, ActiveVertices: visited,
		}, Labels: cur}
	})
	return lr.Result(cur)
}
