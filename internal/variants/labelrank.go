package variants

import (
	"context"
	"math"
	"slices"

	"nulpa/internal/engine"
	"nulpa/internal/graph"
	"nulpa/internal/telemetry"
)

// LabelRank's published parameters.
const (
	// lrInflation is the inflation exponent: each round, distributions are
	// raised to this power and renormalized, sharpening them (typical
	// 1.5–2).
	lrInflation = 2
	// lrCutoff removes labels whose probability falls below it.
	lrCutoff = 0.02
	// lrConditionalQ: a vertex updates only if fewer than q of its
	// neighbours share its dominant label (higher means update more often).
	lrConditionalQ = 0.7
)

// labelRankDetector is LabelRank (Xie & Szymanski 2013), the deterministic
// stabilized label propagation over per-vertex label distributions,
// registered as "labelrank". MaxIterations caps rounds (0 means 30);
// Tolerance, Seed, Workers and BlockDim are ignored (sequential and
// deterministic). Each round's moves count the vertices whose distribution
// was updated. It takes no Extra.
type labelRankDetector struct{}

func (labelRankDetector) Name() string { return "labelrank" }

// Detect runs LabelRank: every vertex holds a probability distribution over
// labels, updated each round by averaging neighbour distributions
// (propagation), sharpening with the inflation operator, and truncating
// tiny entries (cutoff). The conditional-update rule — skip vertices whose
// dominant label already agrees with at least q of their neighbours — is
// LabelRank's stabilization trick and its termination mechanism.
func (labelRankDetector) Detect(g *graph.CSR, opt engine.Options) (*engine.Result, error) {
	if err := engine.NoExtra("labelrank", opt.Extra); err != nil {
		return nil, err
	}
	maxIter := opt.MaxIterations
	if maxIter <= 0 {
		maxIter = 30
	}
	n := g.NumVertices()
	cur := make([]map[uint32]float64, n)
	next := make([]map[uint32]float64, n)
	for v := 0; v < n; v++ {
		// Initial distribution: uniform over the closed neighbourhood,
		// per the LabelRank paper (using the graph's self-augmented view).
		dist := map[uint32]float64{}
		ts, _ := g.Neighbors(graph.Vertex(v))
		dist[uint32(v)] = 1
		for _, j := range ts {
			dist[uint32(j)] += 1
		}
		norm(dist)
		cur[v] = dist
		next[v] = map[uint32]float64{}
	}
	dominant := make([]uint32, n)
	for v := range dominant {
		dominant[v] = dominantLabel(cur[v], uint32(v))
	}
	// Threshold 1: LabelRank stops when a round updates no distribution.
	lr := engine.Loop(engine.LoopConfig{
		MaxIterations: maxIter,
		Threshold:     1,
		Ctx:           opt.Context,
		Profiler:      opt.Profiler,
	}, func(_ context.Context, it int) engine.IterOutcome {
		var updated, edges, active int64
		for v := 0; v < n; v++ {
			ts, _ := g.Neighbors(graph.Vertex(v))
			if len(ts) == 0 {
				continue
			}
			edges += int64(len(ts)) // conditional-update agreement scan
			active++
			// Conditional update: count neighbours sharing our dominant
			// label.
			agree := 0
			for _, j := range ts {
				if dominant[j] == dominant[v] {
					agree++
				}
			}
			if float64(agree) >= lrConditionalQ*float64(len(ts)) && it > 0 {
				// Stable enough; copy distribution forward unchanged.
				out := next[v]
				clear(out)
				for l, p := range cur[v] {
					out[l] = p
				}
				continue
			}
			updated++
			edges += int64(len(ts)) // propagation scan
			out := next[v]
			clear(out)
			for _, j := range ts {
				for l, p := range cur[j] {
					out[l] += p
				}
			}
			// Inflation + cutoff + renormalize.
			for l, p := range out {
				out[l] = math.Pow(p, lrInflation)
			}
			norm(out)
			for l, p := range out {
				if p < lrCutoff {
					delete(out, l)
				}
			}
			if len(out) == 0 {
				out[dominant[v]] = 1
			}
			norm(out)
		}
		cur, next = next, cur
		for v := 0; v < n; v++ {
			dominant[v] = dominantLabel(cur[v], uint32(v))
		}
		return engine.IterOutcome{Record: telemetry.IterRecord{
			Moves: updated, DeltaN: updated,
			EdgeVisits: edges, ActiveVertices: active,
		}, Labels: dominant}
	})
	return lr.Result(dominant)
}

// norm renormalizes a distribution in place. The sum runs in sorted key
// order: map iteration order would vary the floating-point rounding between
// runs, and those ulp differences flip cutoff comparisons downstream —
// LabelRank's determinism depends on an order-independent sum.
func norm(dist map[uint32]float64) {
	keys := make([]uint32, 0, len(dist))
	for l := range dist {
		keys = append(keys, l)
	}
	slices.Sort(keys)
	var sum float64
	for _, l := range keys {
		sum += dist[l]
	}
	if sum == 0 {
		return
	}
	for l := range dist {
		dist[l] /= sum
	}
}
