// Command bench regenerates the paper's tables and figures on the synthetic
// dataset stand-ins and prints them as markdown.
//
// Usage:
//
//	bench -experiment all -scale medium -reps 3 -o EXPERIMENTS.md
//	bench -experiment fig-compare -scale small -graphs asia_osm,com-Orkut -v
//
// It does not judge runtime regressions: the repository benchmark does
// (`bash benchmark/run.sh -compare`), at 65k–465k vertices.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"nulpa/internal/bench"
)

func main() {
	var (
		experiment = flag.String("experiment", "all", "experiment id or 'all': "+strings.Join(bench.ExperimentIDs(), ", "))
		scaleStr   = flag.String("scale", "small", "dataset scale: small, medium, large")
		reps       = flag.Int("reps", 1, "timing repetitions per cell (each cell keeps the fastest)")
		sms        = flag.Int("sms", 0, "simulated streaming multiprocessors (0 = host parallelism)")
		graphs     = flag.String("graphs", "", "comma-separated dataset names (default: all of Table 1)")
		out        = flag.String("o", "", "write markdown to this file instead of stdout")
		jsonOut    = flag.String("json", "", "also write all tables (with per-iteration series) as JSON to this file")
		verbose    = flag.Bool("v", false, "print per-cell progress to stderr")
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
}
