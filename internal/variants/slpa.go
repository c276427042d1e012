// Package variants implements the other label-propagation-based community
// detection methods the paper's selection study (Sahu 2023, cited in §1)
// compared LPA against — SLPA, COPRA, and LabelRank — where plain LPA
// "emerged as the most efficient, delivering communities of comparable
// quality". Having them here lets the repository reproduce that claim too:
// see the fig-variants extension experiment and
// ExampleSLPAResult_OverlapThreshold.
//
// All three are overlapping-community methods; for comparison with the
// disjoint algorithms each returns its dominant label per vertex.
//
// The package's entry points are its three unexported detectors, registered
// with the engine as "slpa", "copra" and "labelrank" and reached through
// engine.MustGet. The overlap structures ride in engine.Result.Extra as
// *SLPAResult and *COPRAResult.
package variants

import (
	"context"
	"math/rand"
	"slices"

	"nulpa/internal/engine"
	"nulpa/internal/graph"
	"nulpa/internal/telemetry"
)

func init() {
	engine.Register(slpaDetector{})
	engine.Register(copraDetector{})
	engine.Register(labelRankDetector{})
}

// slpaRounds is SLPA's default number of speaking rounds T (typically
// 20–100).
const slpaRounds = 30

// SLPAResult is the native detail of an SLPA run, carried in
// engine.Result.Extra.
type SLPAResult struct {
	// Labels is the dominant memory entry per vertex, in the memories' label
	// ids (engine.Result.Labels is the same partition renumbered).
	Labels []uint32
	// Memory is each vertex's full label memory (counts per label), for
	// overlapping-community post-processing.
	Memory []map[uint32]int
}

// slpaDetector is Speaker-Listener Label Propagation (Xie et al.),
// registered as "slpa". MaxIterations is the number of speaking rounds T
// (0 means slpaRounds) and Seed (0 means 1) drives the speakers' label
// choices; Tolerance, Workers and BlockDim are ignored (sequential, no
// convergence rule, so Converged is false). Each round's moves count the
// labels stored into listener memories. It takes no Extra.
type slpaDetector struct{}

func (slpaDetector) Name() string { return "slpa" }

// Detect runs SLPA: every vertex keeps a memory of labels (initially its
// own id); in each round every listener collects one label from each
// neighbour — the neighbour "speaks" a label drawn from its memory with
// probability proportional to the label's frequency — and stores the most
// popular label heard into its own memory.
func (slpaDetector) Detect(g *graph.CSR, opt engine.Options) (*engine.Result, error) {
	if err := engine.NoExtra("slpa", opt.Extra); err != nil {
		return nil, err
	}
	rounds := opt.MaxIterations
	if rounds <= 0 {
		rounds = slpaRounds
	}
	seed := opt.Seed
	if seed == 0 {
		seed = 1
	}
	n := g.NumVertices()
	rng := rand.New(rand.NewSource(seed))
	memory := make([]map[uint32]int, n)
	memSize := make([]int, n)
	for v := 0; v < n; v++ {
		memory[v] = map[uint32]int{uint32(v): 1}
		memSize[v] = 1
	}
	heard := map[uint32]int{}
	var scratch []uint32
	// The quality plane needs crisp labels each round; extracting dominants
	// from the memories costs an extra pass, so only pay it when a quality
	// observer is attached.
	wantQuality := opt.Profiler != nil && opt.Profiler.WantsQuality()
	var domLabels []uint32
	if wantQuality {
		domLabels = make([]uint32, n)
	}
	// Threshold 0: SLPA is a fixed-budget method with no convergence rule, so
	// the loop always runs its full T rounds.
	lr := engine.Loop(engine.LoopConfig{
		MaxIterations: rounds,
		Threshold:     0,
		Ctx:           opt.Context,
		Profiler:      opt.Profiler,
	}, func(_ context.Context, it int) engine.IterOutcome {
		var stored, edges, active int64
		for v := 0; v < n; v++ {
			ts, _ := g.Neighbors(graph.Vertex(v))
			if len(ts) == 0 {
				continue
			}
			edges += int64(len(ts))
			active++
			clear(heard)
			for _, j := range ts {
				if j == graph.Vertex(v) {
					continue
				}
				heard[speak(rng, memory[j], memSize[j], &scratch)]++
			}
			if len(heard) == 0 {
				continue
			}
			// Listener rule: first most popular label in the order heard
			// labels were spoken — reconstructed deterministically by
			// sorting, with the seeded RNG breaking exact ties so no
			// globally consistent label bias creeps in.
			scratch = scratch[:0]
			for l := range heard {
				scratch = append(scratch, l)
			}
			slices.Sort(scratch)
			best, bestC := uint32(0), -1
			tie := 0
			for _, l := range scratch {
				c := heard[l]
				switch {
				case c > bestC:
					best, bestC, tie = l, c, 1
				case c == bestC:
					tie++
					if rng.Intn(tie) == 0 {
						best = l
					}
				}
			}
			memory[v][best]++
			memSize[v]++
			stored++
		}
		if wantQuality {
			dominantMemory(memory, domLabels, &scratch)
		}
		return engine.IterOutcome{Record: telemetry.IterRecord{
			Moves: stored, DeltaN: stored,
			EdgeVisits: edges, ActiveVertices: active,
		}, Labels: domLabels}
	})
	if lr.Err != nil {
		return nil, lr.Err
	}
	labels := make([]uint32, n)
	dominantMemory(memory, labels, &scratch)
	res, _ := lr.Result(labels)
	res.Extra = &SLPAResult{Labels: labels, Memory: memory}
	return res, nil
}

// speak draws a label from the memory with probability proportional to its
// count. Iteration is over sorted labels (via the caller's scratch buffer)
// so the same seed reproduces the same run despite Go's randomized map
// order.
func speak(rng *rand.Rand, memory map[uint32]int, size int, scratch *[]uint32) uint32 {
	r := rng.Intn(size)
	*scratch = (*scratch)[:0]
	for l := range memory {
		*scratch = append(*scratch, l)
	}
	slices.Sort(*scratch)
	for _, l := range *scratch {
		r -= memory[l]
		if r < 0 {
			return l
		}
	}
	// Unreachable when size == Σ counts; guard for safety.
	if len(*scratch) > 0 {
		return (*scratch)[0]
	}
	return 0
}

// OverlapThreshold extracts overlapping communities from an SLPA result:
// every label occupying at least frac of a vertex's memory is kept. Returns
// per-vertex label sets.
func (r *SLPAResult) OverlapThreshold(frac float64) [][]uint32 {
	out := make([][]uint32, len(r.Memory))
	for v, mem := range r.Memory {
		total := 0
		for _, c := range mem {
			total += c
		}
		for l, c := range mem {
			if float64(c) >= frac*float64(total) {
				out[v] = append(out[v], l)
			}
		}
		if len(out[v]) == 0 {
			out[v] = []uint32{r.Labels[v]}
		}
	}
	return out
}

// dominantMemory extracts each vertex's most frequent memory label into dst
// (ties prefer the vertex's own id; the sorted scan keeps the choice
// deterministic). scratch is reused across calls.
func dominantMemory(memory []map[uint32]int, dst []uint32, scratch *[]uint32) {
	for v := range memory {
		s := (*scratch)[:0]
		for l := range memory[v] {
			s = append(s, l)
		}
		slices.Sort(s)
		best, bestC := uint32(v), -1
		for _, l := range s {
			c := memory[v][l]
			if c > bestC || (c == bestC && l == uint32(v)) {
				best, bestC = l, c
			}
		}
		dst[v] = best
		*scratch = s
	}
}
