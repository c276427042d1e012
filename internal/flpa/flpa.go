// Package flpa reimplements the Fast Label Propagation Algorithm of Traag
// and Šubelj (the paper's sequential baseline, igraph's
// IGRAPH_LPA_FAST variant): a queue-based LPA that processes only vertices
// whose neighbourhood recently changed, with no random vertex-order
// shuffling, and converges when the queue drains. Its queue generations are
// its iterations: each runs as one engine.Loop iteration, so FLPA reports
// through the same spans, metrics and records as the round-based detectors.
//
// The package's one entry point is its Detector, registered with the engine
// as "flpa" and reached through engine.MustGet.
package flpa

import (
	"context"
	"math"
	"math/rand"
	"slices"

	"nulpa/internal/engine"
	"nulpa/internal/graph"
	"nulpa/internal/telemetry"
)

func init() { engine.Register(Detector{}) }

// Detector is FLPA's one entry point, registered as "flpa". FLPA has no
// synchronous rounds: MaxIterations, Tolerance and Workers are ignored (the
// queue draining is the convergence rule, so a run that is not interrupted
// always converges), and Seed (0 means 1) drives dominant-label
// tie-breaking. It takes no Extra.
type Detector struct{}

// Name implements engine.Detector.
func (Detector) Name() string { return "flpa" }

// ctxCheckEvery is how many queue pops FLPA processes between cancellation
// checks — cheap enough to be invisible, frequent enough that a canceled run
// returns within a fraction of a generation.
const ctxCheckEvery = 4096

// Detect runs FLPA on g. Each queue generation — the vertices enqueued
// before the previous generation finished, FLPA's analogue of an iteration
// — is one engine.Loop iteration, so FLPA's generations reach the iteration
// spans, metrics, profiler and quality plane like any other detector's
// iterations, and their ΔN decay is comparable with the round-based
// detectors'. The loop has no ΔN threshold: it ends when the queue drains.
func (Detector) Detect(g *graph.CSR, opt engine.Options) (*engine.Result, error) {
	if err := engine.NoExtra("flpa", opt.Extra); err != nil {
		return nil, err
	}
	seed := opt.Seed
	if seed == 0 {
		seed = 1
	}
	n := g.NumVertices()
	rng := rand.New(rand.NewSource(seed))
	labels := make([]uint32, n)
	for i := range labels {
		labels[i] = uint32(i)
	}
	inQueue := make([]bool, n)
	queue := make([]graph.Vertex, 0, n)
	for i := 0; i < n; i++ {
		if g.Degree(graph.Vertex(i)) > 0 {
			queue = append(queue, graph.Vertex(i))
			inQueue[i] = true
		}
	}
	if len(queue) == 0 {
		res := engine.NewResult(labels)
		res.Converged = true
		return res, nil
	}
	// weight accumulator reused across vertices; sparse-reset via touched.
	acc := make(map[uint32]float64)
	var dominant []uint32

	head := 0
	lr := engine.Loop(engine.LoopConfig{
		MaxIterations: math.MaxInt,
		Ctx:           opt.Context,
		Profiler:      opt.Profiler,
	}, func(ctx context.Context, _ int) engine.IterOutcome {
		// One generation: the vertices queued when it starts.
		var rec telemetry.IterRecord
		genEnd := len(queue)
		for head < genEnd {
			if rec.ActiveVertices%ctxCheckEvery == 0 {
				if err := ctx.Err(); err != nil {
					return engine.IterOutcome{Err: engine.CtxErr(err)}
				}
			}
			u := queue[head]
			head++
			inQueue[u] = false
			// Queue pops are FLPA's active-vertex count; every pop scans
			// its full neighbourhood (and again on a move, for re-enqueue).
			rec.ActiveVertices++
			// Compact the consumed prefix occasionally to bound memory.
			if head > n && head*2 > len(queue) {
				queue = append(queue[:0], queue[head:]...)
				genEnd -= head
				head = 0
			}

			ts, ws := g.Neighbors(u)
			rec.EdgeVisits += int64(len(ts))
			clear(acc)
			for k, v := range ts {
				if v == u {
					continue
				}
				acc[labels[v]] += float64(ws[k])
			}
			if len(acc) == 0 {
				continue
			}
			// Find the dominant labels and pick one uniformly at random. The
			// dominant set is sorted so runs are reproducible for a seed
			// despite Go's randomized map iteration order.
			best := -1.0
			for _, w := range acc {
				if w > best {
					best = w
				}
			}
			dominant = dominant[:0]
			for c, w := range acc {
				if w == best {
					dominant = append(dominant, c)
				}
			}
			slices.Sort(dominant)
			newLabel := dominant[0]
			if len(dominant) > 1 {
				// Keep the current label when dominant (igraph's stability
				// rule), else pick at random.
				if slices.Contains(dominant, labels[u]) {
					newLabel = labels[u]
				} else {
					newLabel = dominant[rng.Intn(len(dominant))]
				}
			}
			if newLabel == labels[u] {
				continue
			}
			labels[u] = newLabel
			rec.Moves++
			rec.EdgeVisits += int64(len(ts)) // re-enqueue scan
			// Re-enqueue neighbours not sharing the new community.
			for _, v := range ts {
				if v == u || labels[v] == newLabel || inQueue[v] {
					continue
				}
				queue = append(queue, v)
				inQueue[v] = true
			}
		}
		rec.DeltaN = rec.Moves
		return engine.IterOutcome{
			Record: rec,
			Stop:   head == len(queue),
			Labels: labels,
		}
	})
	return lr.Result(labels)
}
