// Package flpa reimplements the Fast Label Propagation Algorithm of Traag
// and Šubelj (the paper's sequential baseline, igraph's
// IGRAPH_LPA_FAST variant): a queue-based LPA that processes only vertices
// whose neighbourhood recently changed, with no random vertex-order
// shuffling, and converges when the queue drains. Its queue generations are
// its iterations: each runs as one engine.Loop iteration, so FLPA reports
// through the same spans, metrics and records as the round-based detectors.
package flpa

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"time"

	"nulpa/internal/engine"
	"nulpa/internal/graph"
	"nulpa/internal/telemetry"
)

// Options configure an FLPA run.
type Options struct {
	// Context, when non-nil, cancels the run: it is checked before every
	// queue generation and every ctxCheckEvery queue pops, and the detector
	// returns engine.ErrCanceled or engine.ErrDeadline.
	Context context.Context

	// Seed drives the random choice among equally dominant labels — the
	// one place FLPA uses randomness.
	Seed int64
	// MaxSteps bounds queue pops as a safety net; 0 means no bound (FLPA
	// terminates when the queue empties, which it always does because
	// vertices re-enter only on neighbourhood change).
	MaxSteps int64
	// Profiler, when non-nil, receives each queue-generation record as it
	// completes.
	Profiler *telemetry.Recorder
}

// DefaultOptions returns the reference configuration.
func DefaultOptions() Options { return Options{Seed: 1} }

// Result reports a completed FLPA run.
type Result struct {
	Labels   []uint32
	Steps    int64 // vertices processed (queue pops)
	Duration time.Duration
	// Trace records one telemetry record per queue *generation* — the
	// vertices enqueued before the previous generation finished, FLPA's
	// analogue of an iteration — so its ΔN decay is comparable with the
	// iteration traces of the synchronous-round algorithms.
	Trace []telemetry.IterRecord
}

// ctxCheckEvery is how many queue pops FLPA processes between cancellation
// checks — cheap enough to be invisible, frequent enough that a canceled run
// returns within a fraction of a generation.
const ctxCheckEvery = 4096

// Detect runs FLPA on g. Each queue generation is one engine.Loop
// iteration, so FLPA's generations reach the iteration spans, metrics,
// profiler and quality plane like any other detector's iterations. The
// loop has no ΔN threshold: it ends when the queue drains or MaxSteps pops
// have run.
func Detect(g *graph.CSR, opt Options) (*Result, error) {
	n := g.NumVertices()
	rng := rand.New(rand.NewSource(opt.Seed))
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
	res := &Result{Labels: labels}
	if len(queue) == 0 {
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
		for head < genEnd && (opt.MaxSteps == 0 || res.Steps < opt.MaxSteps) {
			if res.Steps%ctxCheckEvery == 0 {
				if err := ctx.Err(); err != nil {
					return engine.IterOutcome{Err: engine.CtxErr(err)}
				}
			}
			u := queue[head]
			head++
			inQueue[u] = false
			res.Steps++
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
			Stop:   head == len(queue) || (opt.MaxSteps > 0 && res.Steps >= opt.MaxSteps),
			Labels: labels,
		}
	})
	if lr.Err != nil {
		return nil, lr.Err
	}
	res.Duration, res.Trace = lr.Duration, lr.Trace
	return res, nil
}
