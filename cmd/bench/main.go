// Command bench regenerates the paper's tables and figures on the synthetic
// dataset stand-ins and prints them as markdown.
//
// Usage:
//
//	bench -experiment all -scale medium -reps 3 -o EXPERIMENTS.md
//	bench -experiment fig-compare -scale small -graphs asia_osm,com-Orkut -v
//
// The regression gate compares the current run's perf medians against a
// previously saved JSON report:
//
//	bench -experiment perf -reps 5 -json BENCH_BASE.json     # capture baseline
//	bench -experiment perf -reps 5 -baseline BENCH_BASE.json # report ratios
//	bench -experiment perf -reps 5 -baseline BENCH_BASE.json -check  # fail > threshold
//
// Every run is also appended to a per-host history file (default
// BENCH_<hostname>.json, disable with -history "") so results accumulate
// across runs instead of being lost; `perfdiff` can diff any two entries.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"nulpa/internal/bench"
	"nulpa/internal/perfdiff"
)

func main() {
	var (
		experiment  = flag.String("experiment", "all", "experiment id or 'all': "+strings.Join(bench.ExperimentIDs(), ", "))
		scaleStr    = flag.String("scale", "small", "dataset scale: small, medium, large")
		reps        = flag.Int("reps", 1, "timing repetitions per cell (the perf experiment and its -baseline gate keep the median; the figure experiments keep the fastest)")
		sms         = flag.Int("sms", 0, "simulated streaming multiprocessors (0 = host parallelism)")
		graphs      = flag.String("graphs", "", "comma-separated dataset names (default: all of Table 1)")
		out         = flag.String("o", "", "write markdown to this file instead of stdout")
		jsonOut     = flag.String("json", "", "also write all tables (with per-iteration series) as JSON to this file")
		verbose     = flag.Bool("v", false, "print per-cell progress to stderr")
		baseline    = flag.String("baseline", "", "compare this run's perf medians against a saved JSON report")
		check       = flag.Bool("check", false, "exit 1 when any baseline comparison exceeds -threshold")
		threshold   = flag.Float64("threshold", 1.5, "regression ratio above which -check fails (current/baseline)")
		qualityDrop = flag.Float64("quality-drop", 0.05, "modularity floor: -check fails when a cell's final Q falls this far below baseline")
		driftMax    = flag.Float64("drift-max", 1e-6, "estimator-drift gate: -check fails when live-vs-exact modularity drift exceeds this")
		history     = flag.String("history", bench.DefaultHistoryPath(), "append this run to a bench history file (\"\" disables)")
	)
	flag.Parse()

	scale, ok := bench.ParseScale(*scaleStr)
	if !ok {
		fmt.Fprintf(os.Stderr, "bench: bad -scale %q\n", *scaleStr)
		os.Exit(2)
	}
	cfg := bench.Config{Scale: scale, Reps: *reps, SMs: *sms}
	if *graphs != "" {
		cfg.Graphs = strings.Split(*graphs, ",")
	}
	if *verbose {
		cfg.Progress = os.Stderr
	}

	ids := bench.ExperimentIDs()
	if *experiment != "all" {
		ids = strings.Split(*experiment, ",")
	}

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}

	fmt.Fprintf(w, "# ν-LPA experiment results\n\nscale=%s reps=%d date=%s\n\n",
		scale, *reps, time.Now().Format("2006-01-02"))
	var all []bench.Table
	for _, id := range ids {
		start := time.Now()
		tables, err := bench.Run(id, cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			os.Exit(2)
		}
		for _, t := range tables {
			fmt.Fprint(w, t.Markdown())
		}
		all = append(all, tables...)
		fmt.Fprintf(os.Stderr, "%s done in %v\n", id, time.Since(start).Round(time.Millisecond))
	}

	if *jsonOut != "" {
		f, err := os.Create(*jsonOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			os.Exit(1)
		}
		if err := bench.WriteJSON(f, scale, *reps, all); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			os.Exit(1)
		}
	}

	report := bench.Report{Scale: scale.String(), Reps: *reps, Tables: all}

	if *history != "" {
		entry := bench.NewHistoryEntry(*experiment, *sms, cfg.Graphs, report)
		n, err := bench.AppendHistory(*history, entry)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: history: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "history: appended entry %d to %s\n", n, *history)
	}

	if *baseline != "" {
		base, err := bench.ReadReport(*baseline)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			os.Exit(1)
		}
		cs := bench.CompareReports(base, report)
		regressed := bench.WriteComparison(w, cs, *threshold)
		qcs := bench.CompareQuality(base, report)
		qualityFailed := bench.WriteQualityGate(w, qcs, *qualityDrop, *driftMax)
		if *check && qualityFailed > 0 {
			fmt.Fprintf(os.Stderr, "bench: %d cell(s) failed the quality gate\n", qualityFailed)
			if line := bench.QualityOffender(qcs, *qualityDrop, *driftMax); line != "" {
				fmt.Fprintf(os.Stderr, "bench: %s\n", line)
			}
			os.Exit(1)
		}
		if *check && regressed > 0 {
			fmt.Fprintf(os.Stderr, "bench: %d cell(s) regressed beyond %.2f× of baseline\n", regressed, *threshold)
			// Attribute the failure: diff every series (timings and work
			// counters) so the gate names the kernel/counter that moved, not
			// just the wall-clock cell.
			diff := perfdiff.Compare(base, report, *threshold)
			if line := diff.TopOffender(); line != "" {
				fmt.Fprintf(os.Stderr, "bench: %s\n", line)
			}
			fmt.Fprintln(os.Stderr, "bench: run `perfdiff <baseline> <current>` on the JSON captures for the full attribution table")
			os.Exit(1)
		}
	}
}
