package bench

import (
	"fmt"
	"io"
	"time"

	"nulpa/internal/engine"
	_ "nulpa/internal/engine/all" // register every detector
	"nulpa/internal/graph"
	"nulpa/internal/hashtable"
	"nulpa/internal/nulpa"
	"nulpa/internal/quality"
	"nulpa/internal/telemetry"
)

// Config controls an experiment run.
type Config struct {
	// Scale selects dataset sizes.
	Scale Scale
	// Reps repeats each timed run, keeping the minimum duration (the
	// paper averages five runs; min-of-k is the steadier laptop analog).
	Reps int
	// SMs configures the simulated device; 0 selects GOMAXPROCS.
	SMs int
	// Graphs restricts the datasets (nil = all of Table 1).
	Graphs []string
	// Progress, when non-nil, receives one line per completed cell.
	Progress io.Writer
}

func (c *Config) defaults() {
	if c.Reps <= 0 {
		c.Reps = 1
	}
	if len(c.Graphs) == 0 {
		c.Graphs = DatasetNames()
	}
}

func (c *Config) progressf(format string, args ...any) {
	if c.Progress != nil {
		fmt.Fprintf(c.Progress, format, args...)
	}
}

// Experiment is one entry of the experiment catalogue: a stable id and the
// function that produces its tables.
type Experiment struct {
	ID string
	Fn func(Config) []Table
}

// experiments is the single source of truth for the experiment list, in
// DESIGN.md order: the paper's figures/tables first, then the repository's
// extension experiments (ablations and the cited selection study). Both the
// id listing and Run derive from it.
var experiments = []Experiment{
	{"fig-swap", FigSwap},
	{"fig-probe", FigProbe},
	{"fig-switch", FigSwitchDegree},
	{"fig-dtype", FigValueType},
	{"fig-coalesced", FigCoalesced},
	{"tab-dataset", TabDataset},
	{"fig-compare", FigCompare},
	{"fig-iters", FigIters},
	{"abl-pruning", AblPruning},
	{"abl-blockdim", AblBlockDim},
	{"abl-reorder", AblReorder},
	{"fig-variants", FigVariants},
	{"tab-partition", TabPartition},
}

// ExperimentIDs lists the experiment identifiers in catalogue order.
func ExperimentIDs() []string {
	ids := make([]string, len(experiments))
	for i, e := range experiments {
		ids[i] = e.ID
	}
	return ids
}

// Run executes one experiment by id and returns its tables.
func Run(id string, cfg Config) ([]Table, error) {
	cfg.defaults()
	for _, e := range experiments {
		if e.ID == id {
			return e.Fn(cfg), nil
		}
	}
	return nil, fmt.Errorf("bench: unknown experiment %q (want one of %v)", id, ExperimentIDs())
}

// runNu executes ν-LPA with opt, repeating cfg.Reps times and keeping the
// fastest run. The paper-specific sweeps (probing, switch degree, mitigation
// schedules, …) use it because they exercise nulpa.Options knobs; the
// cross-algorithm experiments go through runEngine instead.
func runNu(cfg Config, g *graph.CSR, opt nulpa.Options) *nulpa.Result {
	opt.Workers = cfg.SMs // each rep runs on a fresh device of cfg.SMs SMs
	var best *nulpa.Result
	for r := 0; r < cfg.Reps; r++ {
		res, err := nulpa.Detect(g, opt)
		if err != nil {
			panic("bench: " + err.Error())
		}
		if best == nil || res.Duration < best.Duration {
			best = res
		}
	}
	return best
}

// runEngine executes the registered detector name on g, repeating cfg.Reps
// times and keeping the fastest run. cfg.SMs maps onto engine Workers
// (simulated SMs for the SIMT backend, OS workers for the multicore
// algorithms).
func runEngine(cfg Config, g *graph.CSR, name string, opt engine.Options) *engine.Result {
	det, err := engine.MustGet(name)
	if err != nil {
		panic("bench: " + err.Error())
	}
	if opt.Workers == 0 {
		opt.Workers = cfg.SMs
	}
	var best *engine.Result
	for r := 0; r < cfg.Reps; r++ {
		res, err := det.Detect(g, opt)
		if err != nil {
			panic("bench: " + err.Error())
		}
		if best == nil || res.Duration < best.Duration {
			best = res
		}
	}
	return best
}

// swapConfig is one cell of the Figure 1 sweep.
type swapConfig struct {
	name     string
	pickLess int
	cross    int
}

func swapConfigs() []swapConfig {
	cs := []swapConfig{{"none", 0, 0}}
	for i := 1; i <= 4; i++ {
		cs = append(cs, swapConfig{fmt.Sprintf("CC%d", i), 0, i})
	}
	for i := 1; i <= 4; i++ {
		cs = append(cs, swapConfig{fmt.Sprintf("PL%d", i), i, 0})
	}
	for i := 1; i <= 4; i++ {
		for j := 1; j <= 4; j++ {
			cs = append(cs, swapConfig{fmt.Sprintf("H(PL%d,CC%d)", i, j), i, j})
		}
	}
	return cs
}

// FigSwap regenerates Figure 1: runtime and modularity of every community
// swap mitigation method — Cross-Check and Pick-Less each applied every 1–4
// iterations, all 16 hybrids, and unmitigated LPA — relative to PL4, the
// paper's chosen configuration. Per the paper, this sweep uses the
// double-hashing hashtable.
func FigSwap(cfg Config) []Table {
	cfg.defaults()
	configs := swapConfigs()
	type cell struct {
		relTime, relMod float64
		iters           int
		converged       bool
	}
	cells := make(map[string][]cell) // method -> per-graph cells
	for _, name := range cfg.Graphs {
		g := Graph(name, cfg.Scale)
		baseOpt := nulpa.DefaultOptions()
		baseOpt.Probing = hashtable.Double
		// Reference: PL4.
		ref := runNu(cfg, g, baseOpt)
		refQ := quality.Modularity(g, ref.Labels)
		refT := ref.Duration
		for _, sc := range configs {
			opt := baseOpt
			opt.PickLessEvery = sc.pickLess
			opt.CrossCheckEvery = sc.cross
			var res *nulpa.Result
			if sc.name == "PL4" {
				res = ref
			} else {
				res = runNu(cfg, g, opt)
			}
			q := quality.Modularity(g, res.Labels)
			c := cell{iters: res.Iterations, converged: res.Converged}
			if refT > 0 {
				c.relTime = float64(res.Duration) / float64(refT)
			}
			if refQ != 0 {
				c.relMod = q / refQ
			}
			cells[sc.name] = append(cells[sc.name], c)
			cfg.progressf("fig-swap %s %s: rel-time=%.2f rel-mod=%.3f iters=%d\n",
				name, sc.name, c.relTime, c.relMod, c.iters)
		}
	}
	tbl := Table{
		ID:     "fig-swap",
		Title:  "Community-swap mitigation methods, relative to PL4 (Figure 1)",
		Header: []string{"method", "rel runtime (geomean)", "rel modularity (mean)", "mean iters", "converged"},
		Notes: []string{
			"Paper: PL4 attains the highest modularity while being ~8% slower than the fastest method (CC2); unmitigated LPA fails to converge (20-iteration cap).",
		},
	}
	for _, sc := range configs {
		cs := cells[sc.name]
		var ts, qs, is []float64
		conv := 0
		for _, c := range cs {
			ts = append(ts, c.relTime)
			qs = append(qs, c.relMod)
			is = append(is, float64(c.iters))
			if c.converged {
				conv++
			}
		}
		tbl.Rows = append(tbl.Rows, []string{
			sc.name, f3(geomean(ts)), f3(mean(qs)), fmt.Sprintf("%.1f", mean(is)),
			fmt.Sprintf("%d/%d", conv, len(cs)),
		})
	}
	return []Table{tbl}
}

// FigProbe regenerates Figure 3: runtime with linear, quadratic, double,
// and hybrid quadratic-double probing, relative to quadratic-double, plus
// probe-count diagnostics.
func FigProbe(cfg Config) []Table {
	cfg.defaults()
	probings := []hashtable.Probing{hashtable.QuadraticDouble, hashtable.Linear, hashtable.Quadratic, hashtable.Double}
	rel := make(map[hashtable.Probing][]float64)
	probes := make(map[hashtable.Probing][]float64)
	falls := make(map[hashtable.Probing][]float64)
	for _, name := range cfg.Graphs {
		g := Graph(name, cfg.Scale)
		var refT time.Duration
		for _, pr := range probings {
			opt := nulpa.DefaultOptions()
			opt.Probing = pr
			opt.Profiler = telemetry.NewRecorder() // counts the probes
			res := runNu(cfg, g, opt)
			if pr == hashtable.QuadraticDouble {
				refT = res.Duration
			}
			if refT > 0 {
				rel[pr] = append(rel[pr], float64(res.Duration)/float64(refT))
			}
			if sum := telemetry.Sum(res.Trace); sum.HashAccumulates > 0 {
				acc := float64(sum.HashAccumulates)
				probes[pr] = append(probes[pr], float64(sum.HashProbes)/acc)
				falls[pr] = append(falls[pr], float64(sum.HashFallbacks)/acc)
			}
			cfg.progressf("fig-probe %s %v: %v\n", name, pr, res.Duration)
		}
	}
	tbl := Table{
		ID:     "fig-probe",
		Title:  "Hashtable collision resolution, runtime relative to quadratic-double (Figure 3)",
		Header: []string{"probing", "rel runtime (geomean)", "probes/accumulate", "fallbacks/accumulate"},
		Notes: []string{
			"Paper: quadratic-double is 2.8× / 3.7× / 3.2× faster than linear / quadratic / double.",
		},
	}
	for _, pr := range probings {
		tbl.Rows = append(tbl.Rows, []string{
			pr.String(), f3(geomean(rel[pr])), f3(mean(probes[pr])), f4(mean(falls[pr])),
		})
	}
	return []Table{tbl}
}

// FigSwitchDegree regenerates Figure 4: runtime across switch degrees 2–256,
// relative to the paper's chosen 32.
func FigSwitchDegree(cfg Config) []Table {
	cfg.defaults()
	degrees := []int{2, 4, 8, 16, 32, 64, 128, 256}
	rel := make(map[int][]float64)
	for _, name := range cfg.Graphs {
		g := Graph(name, cfg.Scale)
		var refT time.Duration
		{
			opt := nulpa.DefaultOptions()
			opt.SwitchDegree = 32
			refT = runNu(cfg, g, opt).Duration
		}
		for _, sd := range degrees {
			opt := nulpa.DefaultOptions()
			opt.SwitchDegree = sd
			var d time.Duration
			if sd == 32 {
				d = refT
			} else {
				d = runNu(cfg, g, opt).Duration
			}
			if refT > 0 {
				rel[sd] = append(rel[sd], float64(d)/float64(refT))
			}
			cfg.progressf("fig-switch %s sd=%d: %v\n", name, sd, d)
		}
	}
	tbl := Table{
		ID:     "fig-switch",
		Title:  "Thread-per-vertex vs block-per-vertex switch degree, runtime relative to 32 (Figure 4)",
		Header: []string{"switch degree", "rel runtime (geomean)"},
		Notes:  []string{"Paper: a switch degree of 32 (the warp size) performs best."},
	}
	for _, sd := range degrees {
		tbl.Rows = append(tbl.Rows, []string{fmt.Sprintf("%d", sd), f3(geomean(rel[sd]))})
	}
	return []Table{tbl}
}

// FigValueType regenerates Figure 5: float32 vs float64 hashtable values.
func FigValueType(cfg Config) []Table {
	cfg.defaults()
	kinds := []hashtable.ValueKind{hashtable.Float32, hashtable.Float64}
	rel := make(map[hashtable.ValueKind][]float64)
	mods := make(map[hashtable.ValueKind][]float64)
	var bytes32, bytes64 int64
	for _, name := range cfg.Graphs {
		g := Graph(name, cfg.Scale)
		var refT time.Duration
		for _, k := range kinds {
			opt := nulpa.DefaultOptions()
			opt.ValueKind = k
			res := runNu(cfg, g, opt)
			if k == hashtable.Float32 {
				refT = res.Duration
				bytes32 += res.DeviceBytes
			} else {
				bytes64 += res.DeviceBytes
			}
			if refT > 0 {
				rel[k] = append(rel[k], float64(res.Duration)/float64(refT))
			}
			mods[k] = append(mods[k], quality.Modularity(g, res.Labels))
			cfg.progressf("fig-dtype %s %v: %v\n", name, k, res.Duration)
		}
	}
	tbl := Table{
		ID:     "fig-dtype",
		Title:  "Hashtable value width, runtime relative to float32 (Figure 5)",
		Header: []string{"values", "rel runtime (geomean)", "mean modularity", "total device bytes"},
		Notes: []string{
			"Paper: float32 values give a moderate speedup and identical community quality.",
		},
	}
	tbl.Rows = append(tbl.Rows, []string{"float", f3(geomean(rel[hashtable.Float32])), f4(mean(mods[hashtable.Float32])), human(bytes32)})
	tbl.Rows = append(tbl.Rows, []string{"double", f3(geomean(rel[hashtable.Float64])), f4(mean(mods[hashtable.Float64])), human(bytes64)})
	return []Table{tbl}
}

// FigCoalesced regenerates the appendix figure: open addressing (default)
// vs coalesced chaining.
func FigCoalesced(cfg Config) []Table {
	cfg.defaults()
	rel := map[bool][]float64{}
	mods := map[bool][]float64{}
	for _, name := range cfg.Graphs {
		g := Graph(name, cfg.Scale)
		var refT time.Duration
		for _, coal := range []bool{false, true} {
			opt := nulpa.DefaultOptions()
			opt.Coalesced = coal
			res := runNu(cfg, g, opt)
			if !coal {
				refT = res.Duration
			}
			if refT > 0 {
				rel[coal] = append(rel[coal], float64(res.Duration)/float64(refT))
			}
			mods[coal] = append(mods[coal], quality.Modularity(g, res.Labels))
			cfg.progressf("fig-coalesced %s coal=%v: %v\n", name, coal, res.Duration)
		}
	}
	tbl := Table{
		ID:     "fig-coalesced",
		Title:  "Open addressing vs coalesced chaining, runtime relative to default (appendix figure)",
		Header: []string{"hashtable", "rel runtime (geomean)", "mean modularity"},
		Notes:  []string{"Paper: coalesced chaining did not improve performance."},
	}
	tbl.Rows = append(tbl.Rows, []string{"default (open addressing)", f3(geomean(rel[false])), f4(mean(mods[false]))})
	tbl.Rows = append(tbl.Rows, []string{"coalesced chaining", f3(geomean(rel[true])), f4(mean(mods[true]))})
	return []Table{tbl}
}

// TabDataset regenerates Table 1: the dataset inventory with the community
// count |Γ| found by ν-LPA.
func TabDataset(cfg Config) []Table {
	cfg.defaults()
	tbl := Table{
		ID:     "tab-dataset",
		Title:  "Dataset stand-ins with communities found by ν-LPA (Table 1)",
		Header: []string{"graph", "class", "|V|", "|E| (arcs)", "D_avg", "|Γ|"},
		Notes: []string{
			"Synthetic class-matched stand-ins; see DESIGN.md for the substitution rationale.",
		},
	}
	for _, name := range cfg.Graphs {
		g := Graph(name, cfg.Scale)
		st := graph.ComputeStats(g)
		res := runNu(cfg, g, nulpa.DefaultOptions())
		var class string
		for _, d := range Datasets() {
			if d.Name == name {
				class = d.Class
			}
		}
		tbl.Rows = append(tbl.Rows, []string{
			name, class, human(int64(st.NumVertices)), human(st.NumArcs),
			fmt.Sprintf("%.1f", st.AvgDegree), human(int64(quality.CountCommunities(res.Labels))),
		})
		cfg.progressf("tab-dataset %s done\n", name)
	}
	return []Table{tbl}
}

// figCompareMethods lists the registry names Figure 6 compares, in display
// order; figCompareBaseline is the speedup reference. The README's baseline
// table maps the registry names to the paper's method names.
var figCompareMethods = []string{"flpa", "plp", "gvelpa", "gunrock", "louvain", "nulpa", "nulpa-direct"}

const figCompareBaseline = "nulpa-direct"

// FigCompare regenerates Figure 6: absolute runtime, speedup, and modularity
// of every compared method — the CPU and GPU baselines plus ν-LPA on both
// backends — dispatched uniformly through the engine registry.
func FigCompare(cfg Config) []Table {
	cfg.defaults()
	methods := figCompareMethods
	times := map[string]map[string]time.Duration{}
	mods := map[string]map[string]float64{}
	for _, m := range methods {
		times[m] = map[string]time.Duration{}
		mods[m] = map[string]float64{}
	}
	for _, name := range cfg.Graphs {
		g := Graph(name, cfg.Scale)
		for _, m := range methods {
			res := runEngine(cfg, g, m, engine.DefaultOptions())
			times[m][name] = res.Duration
			mods[m][name] = quality.Modularity(g, res.Labels)
			cfg.progressf("fig-compare %s %s: %v Q=%.4f\n", name, m, res.Duration, mods[m][name])
		}
	}

	runtime := Table{
		ID:     "fig-compare-runtime",
		Title:  "Absolute runtime in milliseconds (Figure 6a)",
		Header: append([]string{"graph"}, methods...),
	}
	for _, name := range cfg.Graphs {
		row := []string{name}
		for _, m := range methods {
			row = append(row, fmt.Sprintf("%.1f", float64(times[m][name].Microseconds())/1000))
		}
		runtime.Rows = append(runtime.Rows, row)
	}

	speedup := Table{
		ID:     "fig-compare-speedup",
		Title:  "Speedup of " + figCompareBaseline + " over each method (Figure 6b)",
		Header: []string{"method", "speedup (geomean)"},
		Notes: []string{
			"Paper (A100 vs Xeon): 364× over FLPA, 62× over NetworKit, 2.6× over Gunrock, 37× over cuGraph Louvain.",
			"Here ν-LPA's hardware advantage is absent (same CPU for everyone), so expect the same ordering at smaller factors; both ν-LPA runs use the same simulated device and differ only in launch shape.",
		},
	}
	for _, m := range methods {
		if m == figCompareBaseline {
			continue
		}
		var xs []float64
		for _, name := range cfg.Graphs {
			if times[figCompareBaseline][name] > 0 {
				xs = append(xs, float64(times[m][name])/float64(times[figCompareBaseline][name]))
			}
		}
		speedup.Rows = append(speedup.Rows, []string{m, fmt.Sprintf("%.2f×", geomean(xs))})
	}

	modularity := Table{
		ID:     "fig-compare-modularity",
		Title:  "Modularity of obtained communities (Figure 6c)",
		Header: append([]string{"graph"}, methods...),
		Notes: []string{
			"Paper: ν-LPA +4.7% vs FLPA, −6.1% vs NetworKit LPA, −9.6% vs cuGraph Louvain; Gunrock LPA very low.",
		},
	}
	for _, name := range cfg.Graphs {
		row := []string{name}
		for _, m := range methods {
			row = append(row, f4(mods[m][name]))
		}
		modularity.Rows = append(modularity.Rows, row)
	}
	// Summary row: mean modularity per method.
	sum := []string{"**mean**"}
	for _, m := range methods {
		var xs []float64
		for _, name := range cfg.Graphs {
			xs = append(xs, mods[m][name])
		}
		sum = append(sum, f4(mean(xs)))
	}
	modularity.Rows = append(modularity.Rows, sum)

	return []Table{runtime, speedup, modularity}
}
