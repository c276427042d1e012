// Command loadgen drives the nulpa serving plane with open-loop load and
// reports latency percentiles, shed/goodput accounting, and a lost-job
// crosscheck against the server's own job ledger on /metrics.
//
// Usage:
//
//	loadgen -url http://127.0.0.1:8080 -rate 100 -jobs 500 \
//	        -algo flpa -n 2000 -deg 8 -priorities high,normal,low -tenants 4
//
// The summary prints to stderr; -json writes the full machine-readable
// report. Exit status is nonzero when the run is unhealthy (lost jobs,
// transport errors, malformed sheds, or an unbalanced server ledger).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"nulpa/internal/httpapi"
	"nulpa/internal/loadgen"
)

func main() {
	var (
		url        = flag.String("url", "http://127.0.0.1:8080", "serving plane base URL")
		rate       = flag.Float64("rate", 100, "open-loop arrival rate, submissions/s")
		jobs       = flag.Int("jobs", 200, "total submissions to fire")
		algo       = flag.String("algo", "flpa", "detector algo for submitted jobs")
		gen        = flag.String("gen", "er", "graph generator: "+httpapi.Generators)
		n          = flag.Int("n", 1000, "graph vertex count")
		deg        = flag.Int("deg", 8, "graph average degree")
		workers    = flag.Int("job-workers", 0, "per-job detector parallelism (0 = server default)")
		priorities = flag.String("priorities", "high,normal,low", "comma-separated priority mix cycled across submissions")
		tenants    = flag.Int("tenants", 1, "distinct X-Tenant values cycled across submissions")
		deadline   = flag.Int64("deadline-ms", 0, "per-job admission deadline budget, ms (0 = none)")
		faultsSpec = flag.String("faults", "", "fault-injection spec attached to every job (chaos under load; ν-LPA -algo only)")
		identical  = flag.Bool("identical", false, "submit identical specs (exercises coalescing/cache)")
		timeout    = flag.Duration("job-timeout", 60*time.Second, "per-job terminal-state timeout")
		seed       = flag.Int64("seed", 1, "seed for arrival jitter and graph seeds")
		jsonPath   = flag.String("json", "", "write full JSON report to this file (- for stdout)")
		quiet      = flag.Bool("q", false, "suppress progress lines")
	)
	flag.Parse()

	cfg := loadgen.Config{
		URL:        strings.TrimRight(*url, "/"),
		Rate:       *rate,
		Jobs:       *jobs,
		Algo:       *algo,
		Gen:        *gen,
		N:          *n,
		Deg:        *deg,
		Workers:    *workers,
		Tenants:    *tenants,
		DeadlineMS: *deadline,
		Faults:     *faultsSpec,
		Identical:  *identical,
		JobTimeout: *timeout,
		Seed:       *seed,
	}
	if p := strings.TrimSpace(*priorities); p != "" {
		cfg.Priorities = strings.Split(p, ",")
	}
	if !*quiet {
		cfg.Log = os.Stderr
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	r, err := loadgen.Run(ctx, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
		os.Exit(2)
	}
	r.Summary(os.Stderr)

	if *jsonPath != "" {
		out := os.Stdout
		if *jsonPath != "-" {
			f, err := os.Create(*jsonPath)
			if err != nil {
				fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
				os.Exit(2)
			}
			defer f.Close()
			out = f
		}
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if err := enc.Encode(r); err != nil {
			fmt.Fprintf(os.Stderr, "loadgen: write report: %v\n", err)
			os.Exit(2)
		}
	}
	if !r.Healthy() {
		fmt.Fprintf(os.Stderr, "loadgen: UNHEALTHY run (lost=%d errors=%d badSheds=%d balanced=%v)\n",
			r.Lost, r.Errors, r.ShedMissingRetryAfter, r.MetricsBalanced)
		os.Exit(1)
	}
}
