package bench

import (
	"fmt"
	"math/rand"
	"time"

	"nulpa/internal/engine"
	"nulpa/internal/gen"
	"nulpa/internal/graph"
	"nulpa/internal/nulpa"
	"nulpa/internal/partition"
	"nulpa/internal/quality"
	"nulpa/internal/reorder"
	"nulpa/internal/telemetry"
)

// Extension experiments beyond the paper's figures: the ablations DESIGN.md
// calls out (vertex pruning, block size) and the LPA-variant comparison from
// the author's selection study the paper cites in §1.

// AblPruning measures the vertex-pruning optimization (paper §4, feature 4):
// runtime and hashtable work with pruning on vs off.
func AblPruning(cfg Config) []Table {
	cfg.defaults()
	rel := map[bool][]float64{}
	acc := map[bool][]float64{}
	for _, name := range cfg.Graphs {
		g := Graph(name, cfg.Scale)
		var refT time.Duration
		for _, disable := range []bool{false, true} {
			opt := nulpa.DefaultOptions()
			opt.DisablePruning = disable
			opt.Profiler = telemetry.NewRecorder() // counts the accumulates
			res := runNu(cfg, g, opt)
			if !disable {
				refT = res.Duration
			}
			if refT > 0 {
				rel[disable] = append(rel[disable], float64(res.Duration)/float64(refT))
			}
			acc[disable] = append(acc[disable], float64(telemetry.Sum(res.Trace).HashAccumulates))
			cfg.progressf("abl-pruning %s disable=%v: %v\n", name, disable, res.Duration)
		}
	}
	tbl := Table{
		ID:     "abl-pruning",
		Title:  "Vertex pruning ablation, relative to pruning enabled",
		Header: []string{"configuration", "rel runtime (geomean)", "mean hashtable accumulates"},
		Notes:  []string{"Pruning processes only vertices whose neighbourhood changed; disabling it re-scans every vertex every iteration."},
	}
	tbl.Rows = append(tbl.Rows, []string{"pruning (paper)", f3(geomean(rel[false])), human(int64(mean(acc[false])))})
	tbl.Rows = append(tbl.Rows, []string{"no pruning", f3(geomean(rel[true])), human(int64(mean(acc[true])))})
	return []Table{tbl}
}

// AblBlockDim sweeps the threads-per-block launch parameter.
func AblBlockDim(cfg Config) []Table {
	cfg.defaults()
	dims := []int{32, 64, 128, 256, 512}
	rel := map[int][]float64{}
	for _, name := range cfg.Graphs {
		g := Graph(name, cfg.Scale)
		var refT time.Duration
		{
			opt := nulpa.DefaultOptions()
			opt.BlockDim = 256
			refT = runNu(cfg, g, opt).Duration
		}
		for _, bd := range dims {
			opt := nulpa.DefaultOptions()
			opt.BlockDim = bd
			var d time.Duration
			if bd == 256 {
				d = refT
			} else {
				d = runNu(cfg, g, opt).Duration
			}
			if refT > 0 {
				rel[bd] = append(rel[bd], float64(d)/float64(refT))
			}
			cfg.progressf("abl-blockdim %s bd=%d: %v\n", name, bd, d)
		}
	}
	tbl := Table{
		ID:     "abl-blockdim",
		Title:  "Threads-per-block sweep, runtime relative to 256",
		Header: []string{"block dim", "rel runtime (geomean)"},
	}
	for _, bd := range dims {
		tbl.Rows = append(tbl.Rows, []string{fmt.Sprintf("%d", bd), f3(geomean(rel[bd]))})
	}
	return []Table{tbl}
}

// figVariantsMethods lists the registry names of the selection study: plain
// (direct-backend) LPA against the overlapping label-propagation variants.
var figVariantsMethods = []string{"nulpa-direct", "slpa", "copra", "labelrank"}

// FigVariants reproduces the selection-study comparison the paper cites in
// §1: plain LPA vs SLPA, COPRA, and LabelRank on ground-truth graphs —
// "LPA emerged as the most efficient, delivering communities of comparable
// quality" — dispatched through the engine registry.
func FigVariants(cfg Config) []Table {
	cfg.defaults()
	type cell struct {
		dur time.Duration
		nmi float64
		mod float64
	}
	methods := figVariantsMethods
	cells := map[string][]cell{}
	sizes := []int{2000, 5000}
	if cfg.Scale == Small {
		sizes = []int{500, 1500}
	}
	one := cfg
	one.Reps = 1
	for _, n := range sizes {
		g, truth := gen.Planted(gen.PlantedConfig{
			N: n, Communities: n / 50, DegIn: 10, DegOut: 2, Seed: int64(n),
		})
		for _, m := range methods {
			res := runEngine(one, g, m, engine.DefaultOptions())
			cells[m] = append(cells[m], cell{res.Duration, quality.NMI(res.Labels, truth), quality.Modularity(g, res.Labels)})
			cfg.progressf("fig-variants n=%d %s: %v\n", n, m, res.Duration)
		}
	}
	tbl := Table{
		ID:     "fig-variants",
		Title:  "LPA vs other label-propagation methods on planted ground truth (selection study, §1)",
		Header: []string{"method", "mean runtime (ms)", "mean NMI", "mean modularity"},
		Notes:  []string{"Paper (citing the selection study): LPA is the most efficient with comparable quality."},
	}
	for _, m := range methods {
		var ds, ns, ms []float64
		for _, c := range cells[m] {
			ds = append(ds, float64(c.dur.Microseconds())/1000)
			ns = append(ns, c.nmi)
			ms = append(ms, c.mod)
		}
		tbl.Rows = append(tbl.Rows, []string{m, fmt.Sprintf("%.1f", mean(ds)), f3(mean(ns)), f4(mean(ms))})
	}
	return []Table{tbl}
}

// TabPartition exercises the paper's stated future-work application:
// balanced k-way partitioning with size-constrained LPA on the road and web
// stand-ins, reporting edge cut and balance.
func TabPartition(cfg Config) []Table {
	cfg.defaults()
	tbl := Table{
		ID:     "tab-partition",
		Title:  "Size-constrained LPA partitioning (paper's future-work application)",
		Header: []string{"graph", "parts", "cut fraction", "imbalance", "time (ms)"},
		Notes:  []string{"Each part bounded by (1+0.05)·N/k vertices; cut counts both arc directions."},
	}
	for _, name := range cfg.Graphs {
		g := Graph(name, cfg.Scale)
		for _, k := range []int{4, 16} {
			res, err := partition.Partition(g, partition.DefaultOptions(k))
			if err != nil {
				panic("bench: " + err.Error())
			}
			tbl.Rows = append(tbl.Rows, []string{
				name, fmt.Sprintf("%d", k), f3(res.CutFraction), f4(res.Imbalance),
				fmt.Sprintf("%.1f", float64(res.Duration.Microseconds())/1000),
			})
			cfg.progressf("tab-partition %s k=%d: cut=%.3f\n", name, k, res.CutFraction)
		}
	}
	return []Table{tbl}
}

// AblReorder measures the effect of vertex numbering on ν-LPA runtime —
// the locality application behind Layered Label Propagation (Boldi et al.,
// cited in the paper's related work). It scrambles each graph's ids, then
// reorders by detected communities, and times ν-LPA on all three layouts.
func AblReorder(cfg Config) []Table {
	cfg.defaults()
	layouts := []string{"original", "scrambled", "community-ordered"}
	rel := map[string][]float64{}
	gaps := map[string][]float64{}
	iters := map[string][]float64{}
	for _, name := range cfg.Graphs {
		g := Graph(name, cfg.Scale)
		n := g.NumVertices()
		if n == 0 {
			continue
		}
		// Scramble with a fixed permutation.
		rng := rand.New(rand.NewSource(99))
		perm := reorder.Permutation{NewID: make([]graph.Vertex, n), OldID: make([]graph.Vertex, n)}
		for old, newID := range rng.Perm(n) {
			perm.NewID[old] = graph.Vertex(newID)
			perm.OldID[newID] = graph.Vertex(old)
		}
		scrambled, err := reorder.Apply(g, perm)
		if err != nil {
			panic("bench: " + err.Error())
		}
		// Community ordering computed from a ν-LPA pass on the scrambled
		// graph (self-bootstrapping, as LLP does).
		boot := runNu(cfg, scrambled, nulpa.DefaultOptions())
		ordered, err := reorder.Apply(scrambled, reorder.ByCommunity(boot.Labels))
		if err != nil {
			panic("bench: " + err.Error())
		}
		byLayout := map[string]*graph.CSR{
			"original": g, "scrambled": scrambled, "community-ordered": ordered,
		}
		var refPerIter float64
		for _, layout := range layouts {
			gl := byLayout[layout]
			res := runNu(cfg, gl, nulpa.DefaultOptions())
			// Different numberings change Pick-Less convergence paths, so
			// compare time per iteration — the locality-sensitive quantity —
			// rather than total runtime.
			perIter := float64(res.Duration) / float64(res.Iterations)
			if layout == "original" {
				refPerIter = perIter
			}
			if refPerIter > 0 {
				rel[layout] = append(rel[layout], perIter/refPerIter)
			}
			iters[layout] = append(iters[layout], float64(res.Iterations))
			gaps[layout] = append(gaps[layout], reorder.GapCost(gl))
			cfg.progressf("abl-reorder %s %s: %v (%d iters)\n", name, layout, res.Duration, res.Iterations)
		}
	}
	tbl := Table{
		ID:     "abl-reorder",
		Title:  "Vertex numbering and locality (LLP application), runtime relative to original ids",
		Header: []string{"layout", "rel time/iteration (geomean)", "mean iterations", "mean gap cost"},
		Notes:  []string{"Gap cost = mean |id(u)−id(v)| over edges; community ordering restores the locality scrambling destroys. Per-iteration time isolates locality from the numbering's effect on Pick-Less convergence."},
	}
	for _, layout := range layouts {
		tbl.Rows = append(tbl.Rows, []string{layout, f3(geomean(rel[layout])), fmt.Sprintf("%.1f", mean(iters[layout])), fmt.Sprintf("%.0f", mean(gaps[layout]))})
	}
	return []Table{tbl}
}
