// Package flpa reimplements the Fast Label Propagation Algorithm of Traag
// and Šubelj (the paper's sequential baseline, igraph's
// IGRAPH_LPA_FAST variant): a queue-based LPA that processes only vertices
// whose neighbourhood recently changed, with no random vertex-order
// shuffling, and converges when the queue drains.
package flpa

import (
	"context"
	"math/rand"
	"slices"
	"time"

	"nulpa/internal/engine"
	"nulpa/internal/graph"
	"nulpa/internal/telemetry"
)

// Options configure an FLPA run.
type Options struct {
	// Context, when non-nil, cancels the run; FLPA has no synchronous
	// iterations, so cancellation is checked every ctxCheckEvery queue pops
	// and the detector returns engine.ErrCanceled or engine.ErrDeadline.
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

// Detect runs FLPA on g.
func Detect(g *graph.CSR, opt Options) (*Result, error) {
	ctx := opt.Context
	if ctx == nil {
		ctx = context.Background()
	}
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
	// weight accumulator reused across vertices; sparse-reset via touched.
	acc := make(map[uint32]float64)
	var dominant []uint32

	start := time.Now()
	var steps int64
	head := 0
	// Generation tracking for the telemetry trace: genEnd marks the queue
	// position where the current generation's vertices stop.
	res := &Result{}
	genEnd := len(queue)
	genStart := start
	var genMoves, genSteps, genEdges int64
	flushGen := func() {
		if genSteps == 0 {
			return
		}
		rec := telemetry.IterRecord{
			Iter:     len(res.Trace),
			Moves:    genMoves,
			DeltaN:   genMoves,
			Duration: time.Since(genStart),
			// Queue pops are FLPA's active-vertex count; every pop scans
			// its full neighbourhood (and again on a move, for re-enqueue).
			EdgeVisits:     genEdges,
			ActiveVertices: genSteps,
		}
		if opt.Profiler != nil {
			rec.Quality = opt.Profiler.ObserveQuality(rec.Iter, labels)
			opt.Profiler.RecordIteration(rec)
		}
		res.Trace = append(res.Trace, rec)
		genMoves, genSteps, genEdges = 0, 0, 0
		genStart = time.Now()
	}
	for head < len(queue) {
		if opt.MaxSteps > 0 && steps >= opt.MaxSteps {
			break
		}
		if steps%ctxCheckEvery == 0 {
			if err := ctx.Err(); err != nil {
				return nil, engine.CtxErr(err)
			}
		}
		if head == genEnd {
			flushGen()
			genEnd = len(queue)
		}
		u := queue[head]
		head++
		inQueue[u] = false
		steps++
		genSteps++
		// Compact the consumed prefix occasionally to bound memory.
		if head > n && head*2 > len(queue) {
			queue = append(queue[:0], queue[head:]...)
			genEnd -= head
			head = 0
		}

		ts, ws := g.Neighbors(u)
		genEdges += int64(len(ts))
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
			// Keep the current label when dominant (igraph's stability rule),
			// else pick at random.
			keep := false
			for _, c := range dominant {
				if c == labels[u] {
					keep = true
					break
				}
			}
			if keep {
				newLabel = labels[u]
			} else {
				newLabel = dominant[rng.Intn(len(dominant))]
			}
		}
		if newLabel == labels[u] {
			continue
		}
		labels[u] = newLabel
		genMoves++
		genEdges += int64(len(ts)) // re-enqueue scan
		// Re-enqueue neighbours not sharing the new community.
		for _, v := range ts {
			if v == u || labels[v] == newLabel || inQueue[v] {
				continue
			}
			queue = append(queue, v)
			inQueue[v] = true
		}
	}
	flushGen()
	res.Labels, res.Steps, res.Duration = labels, steps, time.Since(start)
	return res, nil
}
