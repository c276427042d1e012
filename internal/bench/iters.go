package bench

import (
	"fmt"
	"time"

	"nulpa/internal/engine"
	"nulpa/internal/telemetry"
)

// figItersMethods lists the registry names whose convergence traces Figure's
// iteration study records: ν-LPA plus the LPA baselines with a per-round
// notion of ΔN.
var figItersMethods = []string{"nulpa", "flpa", "plp", "gvelpa", "gunrock"}

// FigIters records the per-iteration convergence behaviour of ν-LPA and the
// LPA baselines: how ΔN (net labels changed) decays, where Pick-Less rounds
// and Cross-Check reverts land, and how much each iteration costs. The
// markdown table summarizes each run; the attached Series carry the full ΔN
// and per-iteration-millisecond sequences for the JSON export (-json in
// cmd/bench), which is how the paper's convergence plots are regenerated.
func FigIters(cfg Config) []Table {
	cfg.defaults()
	tbl := Table{
		ID:     "fig-iters",
		Title:  "Per-iteration convergence telemetry (ΔN decay and iteration cost)",
		Header: []string{"graph", "method", "iters", "ΔN first", "ΔN last", "reverts", "pruned max", "mean iter ms"},
		Notes: []string{
			"ΔN = net labels changed per iteration; FLPA rows count queue generations.",
			"Full per-iteration ΔN and millisecond series are attached to this table in the JSON export (bench -json).",
		},
	}
	type run struct {
		method string
		trace  []telemetry.IterRecord
	}
	// Traces come from single runs (no min-of-reps: the trace IS the data).
	one := cfg
	one.Reps = 1
	for _, name := range cfg.Graphs {
		g := Graph(name, cfg.Scale)
		var runs []run
		for _, m := range figItersMethods {
			opt := engine.DefaultOptions()
			// A live profiler turns on the ν-LPA backends' work counters
			// (edge visits, active and pruned vertices).
			opt.Profiler = telemetry.NewRecorder()
			res := runEngine(one, g, m, opt)
			runs = append(runs, run{m, res.Trace})
		}

		for _, r := range runs {
			tbl.Rows = append(tbl.Rows, iterRow(name, r.method, r.trace))
			label := name + "/" + r.method
			deltas := make([]float64, len(r.trace))
			millis := make([]float64, len(r.trace))
			for i, it := range r.trace {
				deltas[i] = float64(it.DeltaN)
				millis[i] = float64(it.Duration.Nanoseconds()) / 1e6
			}
			tbl.Series = append(tbl.Series,
				Series{Name: "deltaN", Label: label, Values: deltas},
				Series{Name: "iter-ms", Label: label, Values: millis})
			cfg.progressf("fig-iters %s %s: %d iters\n", name, r.method, len(r.trace))
		}
	}
	return []Table{tbl}
}

// iterRow summarizes one run's iteration trace as a table row.
func iterRow(graphName, method string, trace []telemetry.IterRecord) []string {
	var first, last, reverts, prunedMax int64
	var total time.Duration
	for i, it := range trace {
		if i == 0 {
			first = it.DeltaN
		}
		last = it.DeltaN
		reverts += it.Reverts
		if it.Pruned > prunedMax {
			prunedMax = it.Pruned
		}
		total += it.Duration
	}
	meanMs := 0.0
	if len(trace) > 0 {
		meanMs = float64(total.Nanoseconds()) / 1e6 / float64(len(trace))
	}
	return []string{
		graphName, method, fmt.Sprintf("%d", len(trace)),
		fmt.Sprintf("%d", first), fmt.Sprintf("%d", last),
		fmt.Sprintf("%d", reverts), fmt.Sprintf("%d", prunedMax),
		fmt.Sprintf("%.2f", meanMs),
	}
}
