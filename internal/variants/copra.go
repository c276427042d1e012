package variants

import (
	"context"
	"sort"

	"nulpa/internal/engine"
	"nulpa/internal/graph"
	"nulpa/internal/telemetry"
)

// copraMaxLabels is v, the per-vertex label capacity: a vertex belongs to
// at most v communities, and labels with belonging coefficient below 1/v are
// discarded each round. v = 2 behaves like near-disjoint detection, the fair
// setting against plain LPA.
const copraMaxLabels = 2

// COPRAResult is the native detail of a COPRA run, carried in
// engine.Result.Extra.
type COPRAResult struct {
	// Belonging is each vertex's label→coefficient map (coefficients sum
	// to 1 per vertex); engine.Result.Labels holds each vertex's label of
	// highest coefficient, renumbered.
	Belonging []map[uint32]float64
}

// copraDetector is Community Overlap PRopagation (Gregory 2010),
// registered as "copra". MaxIterations caps propagation rounds (0 means
// 30); Tolerance, Seed, Workers and BlockDim are ignored (sequential and
// deterministic). Each round's moves count the vertices whose dominant
// label changed. It takes no Extra.
type copraDetector struct{}

func (copraDetector) Name() string { return "copra" }

// Detect runs COPRA: every vertex holds belonging coefficients over
// labels; each round a vertex averages its neighbours' coefficient vectors,
// discards labels below 1/v, renormalizes, and keeps at most v labels.
// Terminates when per-vertex dominant labels are stable across a round, or
// at MaxIterations.
func (copraDetector) Detect(g *graph.CSR, opt engine.Options) (*engine.Result, error) {
	if err := engine.NoExtra("copra", opt.Extra); err != nil {
		return nil, err
	}
	maxIter := opt.MaxIterations
	if maxIter <= 0 {
		maxIter = 30
	}
	n := g.NumVertices()
	threshold := 1 / float64(copraMaxLabels)
	cur := make([]map[uint32]float64, n)
	next := make([]map[uint32]float64, n)
	for v := 0; v < n; v++ {
		cur[v] = map[uint32]float64{uint32(v): 1}
		next[v] = map[uint32]float64{}
	}
	prevDominant := make([]uint32, n)
	lr := engine.Loop(engine.LoopConfig{
		MaxIterations: maxIter,
		Threshold:     0,
		Ctx:           opt.Context,
		Profiler:      opt.Profiler,
	}, func(_ context.Context, it int) engine.IterOutcome {
		var edges, active int64
		for v := 0; v < n; v++ {
			ts, ws := g.Neighbors(graph.Vertex(v))
			out := next[v]
			clear(out)
			if len(ts) == 0 {
				out[uint32(v)] = 1
				continue
			}
			edges += int64(len(ts))
			active++
			// Average over the closed neighbourhood: the vertex's own
			// coefficients participate with unit weight. Gregory's
			// formulation averages neighbours only, but on symmetric
			// structures (e.g. a matched pair) that oscillates forever
			// under synchronous updates; the self term is the standard
			// stabilization and preserves the fixed points.
			var totalW float64 = 1
			for l, b := range cur[v] {
				out[l] += b
			}
			for k, j := range ts {
				if j == graph.Vertex(v) {
					continue
				}
				w := float64(ws[k])
				totalW += w
				for l, b := range cur[j] {
					out[l] += b * w
				}
			}
			if totalW == 0 {
				out[uint32(v)] = 1
				continue
			}
			for l := range out {
				out[l] /= totalW
			}
			filterBelonging(out, threshold, copraMaxLabels, uint32(v))
		}
		cur, next = next, cur

		var changed int64
		for v := 0; v < n; v++ {
			d := dominantLabel(cur[v], uint32(v))
			if d != prevDominant[v] {
				changed++
			}
			prevDominant[v] = d
		}
		return engine.IterOutcome{
			Record: telemetry.IterRecord{
				Moves: changed, DeltaN: changed,
				EdgeVisits: edges, ActiveVertices: active,
			},
			// COPRA's own rule: stop once dominant labels are stable across
			// a full round (never on the first, where dominants are still
			// the initial singletons).
			Stop: changed == 0 && it > 0,
			// The crisp projection of the fuzzy belonging state.
			Labels: prevDominant,
		}
	})
	if lr.Err != nil {
		return nil, lr.Err
	}
	labels := make([]uint32, n)
	for v := 0; v < n; v++ {
		labels[v] = dominantLabel(cur[v], uint32(v))
	}
	res, _ := lr.Result(labels)
	res.Extra = &COPRAResult{Belonging: cur}
	return res, nil
}

// filterBelonging drops labels below the threshold, keeps at most maxLabels
// of the strongest, and renormalizes. If everything is filtered, the
// strongest original label is kept (COPRA's "retain a random label among the
// maxima" — made deterministic by preferring the strongest, then smallest).
func filterBelonging(b map[uint32]float64, threshold float64, maxLabels int, self uint32) {
	type lb struct {
		l uint32
		c float64
	}
	var all []lb
	for l, c := range b {
		all = append(all, lb{l, c})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].c != all[j].c {
			return all[i].c > all[j].c
		}
		return all[i].l < all[j].l
	})
	clear(b)
	var sum float64
	for i, e := range all {
		if i >= maxLabels {
			break
		}
		if e.c < threshold && i > 0 {
			break
		}
		b[e.l] = e.c
		sum += e.c
	}
	if len(b) == 0 && len(all) > 0 {
		b[all[0].l] = 1
		return
	}
	if sum > 0 {
		for l := range b {
			b[l] /= sum
		}
	}
}

// dominantLabel returns the label with the highest coefficient (ties:
// smallest label), or self when the map is empty.
func dominantLabel(b map[uint32]float64, self uint32) uint32 {
	best, bestC := self, -1.0
	for l, c := range b {
		if c > bestC || (c == bestC && l < best) {
			best, bestC = l, c
		}
	}
	return best
}
