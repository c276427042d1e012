package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"nulpa/internal/engine"
	"nulpa/internal/graph"
	"nulpa/internal/nulpa"
)

// The perf experiment and the regression gate. `bench -experiment perf -json
// BENCH.json` captures per-method median runtimes as machine-readable series;
// a later `bench -experiment perf -baseline BENCH.json -check` re-measures
// and fails when any median grew beyond the threshold. CI runs the gate in
// report-only mode (no -check) so noise on shared runners annotates the build
// without failing it.

// perfMethods are the detectors the gate tracks: ν-LPA on both backends plus
// the fastest CPU baseline, enough to catch regressions in the SIMT engine,
// the direct path, and the shared engine scaffolding.
var perfMethods = []string{"nulpa", "nulpa-direct", "flpa"}

// perfShardCounts is the shards axis for the sharded detector: shards=1 is
// the single-device run under the sharded defaults (ρ = 3), shards=4 the
// multi-device configuration compared against it for attribution.
var perfShardCounts = []int{1, 4}

// shardMethod names one sharded perf cell; the @sK suffix keeps each shard
// count a distinct label so the regression gate tracks them separately.
func shardMethod(shards int) string { return fmt.Sprintf("nulpa-sharded@s%d", shards) }

// Perf measures the median wall time of each tracked detector on each graph
// and attaches one "median-ms" series per cell — the shape CompareReports
// consumes. The sharded backend contributes one extra cell per shard count.
func Perf(cfg Config) []Table {
	cfg.defaults()
	header := append([]string{"graph"}, perfMethods...)
	for _, shards := range perfShardCounts {
		header = append(header, shardMethod(shards))
	}
	tbl := Table{
		ID:     "perf",
		Title:  "Median detection runtime (regression-gate input)",
		Header: header,
		Notes: []string{
			"Medians over -reps runs; compare snapshots with `bench -experiment perf -baseline OLD.json [-check]`.",
		},
	}
	for _, name := range cfg.Graphs {
		g := Graph(name, cfg.Scale)
		row := []string{name}
		for _, m := range perfMethods {
			det, err := engine.MustGet(m)
			if err != nil {
				panic("bench: " + err.Error())
			}
			opt := engine.DefaultOptions()
			opt.Workers = cfg.SMs
			row = append(row, perfCell(&tbl, cfg, g, det, opt, name, m))
		}
		for _, shards := range perfShardCounts {
			det, err := engine.MustGet("nulpa-sharded")
			if err != nil {
				panic("bench: " + err.Error())
			}
			nopt := nulpa.DefaultShardedOptions()
			nopt.Shards = shards
			opt := engine.DefaultOptions()
			opt.Workers = cfg.SMs
			opt.Extra = nopt
			row = append(row, perfCell(&tbl, cfg, g, det, opt, name, shardMethod(shards)))
		}
		tbl.Rows = append(tbl.Rows, row)
	}
	return []Table{tbl}
}

// perfCell measures one (graph, method) cell: timed reps feeding the
// median-ms series, then one instrumented run for the work series. Sharded
// cells additionally record halo-label and boundary-cut series from the
// native result so perfdiff can attribute sharded runtime to exchange
// traffic.
func perfCell(tbl *Table, cfg Config, g *graph.CSR, det engine.Detector, opt engine.Options, name, m string) string {
	durs := make([]time.Duration, 0, cfg.Reps)
	var last *engine.Result
	for r := 0; r < cfg.Reps; r++ {
		res, err := det.Detect(g, opt)
		if err != nil {
			panic("bench: " + err.Error())
		}
		durs = append(durs, res.Duration)
		last = res
	}
	med := median(durs)
	ms := float64(med) / float64(time.Millisecond)
	label := name + "/" + m
	tbl.Series = append(tbl.Series, Series{
		Name:   "median-ms",
		Label:  label,
		Values: []float64{ms},
	})
	// Work capture: one additional instrumented run. Timed reps stay
	// unprofiled so the medians remain comparable with pre-existing
	// baselines; counters are deterministic enough that one profiled run is
	// representative.
	tbl.Series = append(tbl.Series, workSeries(g, det, opt, name, m)...)
	if nres, ok := last.Extra.(*nulpa.Result); ok && det.Name() == "nulpa-sharded" {
		tbl.Series = append(tbl.Series,
			Series{Name: "shard-halo-labels", Label: label, Values: []float64{float64(nres.HaloLabels)}},
			Series{Name: "shard-cut-arcs", Label: label, Values: []float64{float64(nres.CutArcs)}},
		)
	}
	cfg.progressf("perf %s %s: median %v over %d reps\n", name, m, med, cfg.Reps)
	return f3(ms)
}

// median returns the middle duration (lower middle for even counts).
func median(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(a, b int) bool { return s[a] < s[b] })
	return s[(len(s)-1)/2]
}

// Comparison is the verdict on one tracked cell: its baseline and current
// medians and their ratio.
type Comparison struct {
	// Label is "graph/method", the series label.
	Label string
	// BaselineMS and CurrentMS are the two medians in milliseconds.
	BaselineMS, CurrentMS float64
	// Ratio is CurrentMS / BaselineMS; > 1 means slower than baseline.
	Ratio float64
}

// Regressed reports whether the cell exceeds the threshold.
func (c Comparison) Regressed(threshold float64) bool { return c.Ratio > threshold }

// CompareReports matches every "median-ms" series between two reports by
// (table id, label) and returns one Comparison per matched cell, sorted by
// descending ratio — the worst offender first. Cells present in only one
// report are skipped: the gate judges shared coverage, not catalogue drift.
func CompareReports(baseline, current Report) []Comparison {
	base := medianSeries(baseline)
	var out []Comparison
	for _, t := range current.Tables {
		for _, s := range t.Series {
			if s.Name != "median-ms" || len(s.Values) == 0 {
				continue
			}
			b, ok := base[t.ID+"\x00"+s.Label]
			if !ok || b <= 0 {
				continue
			}
			cur := s.Values[0]
			out = append(out, Comparison{
				Label:      s.Label,
				BaselineMS: b,
				CurrentMS:  cur,
				Ratio:      cur / b,
			})
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Ratio > out[b].Ratio })
	return out
}

func medianSeries(r Report) map[string]float64 { return namedSeries(r, "median-ms") }

// QualityComparison is the quality-gate verdict on one cell: its baseline
// and current final modularity plus the current estimator drift. Modularity
// is higher-is-better, so the gate direction is inverted relative to the
// runtime gate.
type QualityComparison struct {
	// Label is "graph/method", the series label.
	Label string
	// BaselineQ and CurrentQ are the final exact modularities.
	BaselineQ, CurrentQ float64
	// Drift is the current run's worst |estimate − exact| at any sampled
	// recompute.
	Drift float64
}

// FloorDropped reports whether current modularity fell more than drop below
// the baseline — the per-cell modularity floor.
func (c QualityComparison) FloorDropped(drop float64) bool {
	return c.BaselineQ-c.CurrentQ > drop
}

// DriftExceeded reports whether the incremental estimator wandered further
// from the exact recompute than allowed.
func (c QualityComparison) DriftExceeded(maxDrift float64) bool {
	return c.Drift > maxDrift
}

// CompareQuality matches every "quality-modularity" series between two
// reports by (table id, label), joining the current run's "quality-drift",
// and returns one QualityComparison per matched cell sorted by descending
// modularity loss — the worst offender first. Cells present in only one
// report are skipped, like the runtime gate.
func CompareQuality(baseline, current Report) []QualityComparison {
	base := namedSeries(baseline, "quality-modularity")
	drift := namedSeries(current, "quality-drift")
	var out []QualityComparison
	for _, t := range current.Tables {
		for _, s := range t.Series {
			if s.Name != "quality-modularity" || len(s.Values) == 0 {
				continue
			}
			key := t.ID + "\x00" + s.Label
			b, ok := base[key]
			if !ok {
				continue
			}
			out = append(out, QualityComparison{
				Label:     s.Label,
				BaselineQ: b,
				CurrentQ:  s.Values[0],
				Drift:     drift[key],
			})
		}
	}
	sort.Slice(out, func(a, b int) bool {
		return out[a].BaselineQ-out[a].CurrentQ > out[b].BaselineQ-out[b].CurrentQ
	})
	return out
}

// WriteQualityGate renders the quality comparisons as a markdown table and
// returns how many cells failed either gate (modularity floor or estimator
// drift); each failing row names its offender and which gate it tripped.
func WriteQualityGate(w io.Writer, cs []QualityComparison, drop, maxDrift float64) int {
	fmt.Fprintf(w, "### quality vs baseline (floor −%.3f, drift ≤ %.1e)\n\n", drop, maxDrift)
	if len(cs) == 0 {
		fmt.Fprintln(w, "no comparable cells — baseline and current share no quality-modularity series")
		return 0
	}
	fmt.Fprintln(w, "| cell | baseline Q | current Q | ΔQ | drift | |")
	fmt.Fprintln(w, "| --- | --- | --- | --- | --- | --- |")
	failed := 0
	for _, c := range cs {
		var flags []string
		if c.FloorDropped(drop) {
			flags = append(flags, "**FLOOR**")
		}
		if c.DriftExceeded(maxDrift) {
			flags = append(flags, "**DRIFT**")
		}
		if len(flags) > 0 {
			failed++
		}
		fmt.Fprintf(w, "| %s | %.4f | %.4f | %+.4f | %.2e | %s |\n",
			c.Label, c.BaselineQ, c.CurrentQ, c.CurrentQ-c.BaselineQ, c.Drift,
			joinFlags(flags))
	}
	return failed
}

// QualityOffender names the worst failing cell for the gate's one-line
// failure message, or "" when every cell passed.
func QualityOffender(cs []QualityComparison, drop, maxDrift float64) string {
	for _, c := range cs {
		if c.FloorDropped(drop) {
			return fmt.Sprintf("worst offender: %s modularity %.4f → %.4f (floor −%.3f)",
				c.Label, c.BaselineQ, c.CurrentQ, drop)
		}
	}
	for _, c := range cs {
		if c.DriftExceeded(maxDrift) {
			return fmt.Sprintf("worst offender: %s estimator drift %.2e (limit %.1e)",
				c.Label, c.Drift, maxDrift)
		}
	}
	return ""
}

func joinFlags(flags []string) string {
	out := ""
	for i, f := range flags {
		if i > 0 {
			out += " "
		}
		out += f
	}
	return out
}

// namedSeries indexes one series family by (table id, label).
func namedSeries(r Report, name string) map[string]float64 {
	m := map[string]float64{}
	for _, t := range r.Tables {
		for _, s := range t.Series {
			if s.Name == name && len(s.Values) > 0 {
				m[t.ID+"\x00"+s.Label] = s.Values[0]
			}
		}
	}
	return m
}

// ReadReport loads a JSON report previously written by WriteJSON.
func ReadReport(path string) (Report, error) {
	f, err := os.Open(path)
	if err != nil {
		return Report{}, err
	}
	defer f.Close()
	var r Report
	if err := json.NewDecoder(f).Decode(&r); err != nil {
		return Report{}, fmt.Errorf("bench: parse %s: %w", path, err)
	}
	return r, nil
}

// WriteComparison renders the comparisons as a markdown table, flagging cells
// above the threshold, and returns how many regressed.
func WriteComparison(w io.Writer, cs []Comparison, threshold float64) int {
	fmt.Fprintf(w, "### perf vs baseline (threshold %.2f×)\n\n", threshold)
	if len(cs) == 0 {
		fmt.Fprintln(w, "no comparable cells — baseline and current share no median-ms series")
		return 0
	}
	fmt.Fprintln(w, "| cell | baseline ms | current ms | ratio | |")
	fmt.Fprintln(w, "| --- | --- | --- | --- | --- |")
	regressed := 0
	for _, c := range cs {
		flag := ""
		if c.Regressed(threshold) {
			flag = "**REGRESSED**"
			regressed++
		}
		fmt.Fprintf(w, "| %s | %.3f | %.3f | %.2f× | %s |\n",
			c.Label, c.BaselineMS, c.CurrentMS, c.Ratio, flag)
	}
	return regressed
}
