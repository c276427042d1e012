// Command benchmark is the repository's benchmark: it measures ν-LPA end to
// end and layer by layer on four workloads, checking every output, and
// compares two sets of its runs against the bounds in BENCHMARK.json.
//
// Run it from the repository root through the wrapper, which builds it:
//
//	bash benchmark/run.sh --workload web-simt --seed 1 --seconds 20 --trace 0
//	bash benchmark/run.sh --workload all --trace 1
//	bash benchmark/run.sh -compare set1.jsonl set2.jsonl
//
// See README.md for the workloads, the metrics and the findings.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	_ "nulpa/internal/engine/all"
)

// metricSpec is one metric of BENCHMARK.json.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchSpec is the part of BENCHMARK.json the benchmark reads: the
// workloads, the metrics with their units and bounds, and the run length.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// metricValue is one metric as the benchmark reports it.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the last line a run prints.
type summary struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is the full account of one run that -json appends: the summary,
// the raw samples behind it, and what is needed to reproduce it.
type record struct {
	Workload   string   `json:"workload"`
	Seed       int64    `json:"seed"`
	Trace      int      `json:"trace"`
	Seconds    float64  `json:"seconds"`
	Short      bool     `json:"short,omitempty"`
	GitSHA     string   `json:"git_sha"`
	GoVersion  string   `json:"go_version"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	NProc      int      `json:"nproc"`
	Correct    bool     `json:"correct"`
	Attempted  int      `json:"attempted"`
	Failed     int      `json:"failed"`
	Errors     []string `json:"errors,omitempty"`
	// HostProbe is the host probe's median time (end-to-end runs only) and
	// HostFactor is probeRef over it: the metrics in seconds were
	// multiplied by it and those per second divided by it. Samples are as
	// measured.
	HostProbe  float64                `json:"host_probe_s,omitempty"`
	HostFactor float64                `json:"host_factor"`
	Metrics    map[string]metricValue `json:"metrics"`
	Samples    map[string][]float64   `json:"samples"`
}

func (r *record) summary() summary {
	return summary{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: r.Metrics}
}

// config is one invocation's settings.
type config struct {
	spec    *benchSpec
	seed    int64
	seconds time.Duration
	trace   bool
	short   bool
	// outDir receives the traced run's span files.
	outDir string
}

// runWorkload runs w once and returns its record. An error means the run
// could not be carried out at all; failed reps and jobs are in the record.
func runWorkload(w *workload, cfg config) (*record, error) {
	run := runOneShot
	metrics := cfg.spec.EndToEnd
	switch {
	case cfg.trace:
		run, metrics = runTraced, cfg.spec.PerLayer
	case w.serve:
		run = runServing
	}
	// End-to-end times are scaled to the reference host. The traced run's
	// layer times stay as measured: they are compared within one run.
	var probe float64
	factor := 1.0
	if !cfg.trace {
		probe = probeHost()
		factor = probeRef / probe
	}
	tr := newTracer(fmt.Sprintf("%s/seed-%d", w.name, cfg.seed))
	res, err := run(w, cfg.seed, cfg.seconds, tr)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	rec := &record{
		Workload: w.name, Seed: cfg.seed, Trace: btoi(cfg.trace), Seconds: cfg.seconds.Seconds(),
		Short: cfg.short, GitSHA: gitSHA(), GoVersion: runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(),
		Correct:   res.attempted > 0 && res.failed == 0,
		Attempted: res.attempted, Failed: res.failed, Errors: res.errs,
		HostProbe: probe, HostFactor: factor,
		Metrics: map[string]metricValue{}, Samples: res.samples,
	}
	for _, m := range metrics {
		// A metric is missing only when every sample of it failed, which
		// the record already reports; otherwise it is a benchmark bug.
		v, ok := res.value(m.Name)
		if !ok && res.failed == 0 {
			return nil, fmt.Errorf("%s: the run produced no metric %s", w.name, m.Name)
		}
		rec.Metrics[m.Name] = metricValue{Value: scaled(m.Unit, v, factor), Unit: m.Unit}
	}
	if cfg.trace {
		path := filepath.Join(cfg.outDir, "trace-"+w.name+".jsonl")
		if err := tr.writeJSONL(path); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
	}
	report(os.Stdout, rec, metrics, tr)
	return rec, nil
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// report prints a run's metrics by name with their units, each timing with
// its IQR, sample count and tail, and (traced) the spans' self times.
func report(out io.Writer, rec *record, metrics []metricSpec, tr *tracer) {
	w := bufio.NewWriter(out)
	defer w.Flush()
	fmt.Fprintf(w, "%s seed=%d trace=%d: %d attempted, %d failed\n",
		rec.Workload, rec.Seed, rec.Trace, rec.Attempted, rec.Failed)
	if rec.HostProbe > 0 {
		fmt.Fprintf(w, "  host probe %.4f s: times scaled by %.4f to the reference host\n", rec.HostProbe, rec.HostFactor)
	}
	for _, e := range rec.Errors {
		fmt.Fprintf(w, "  error: %s\n", e)
	}
	for _, m := range metrics {
		v := rec.Metrics[m.Name]
		fmt.Fprintf(w, "  %-28s %14.6g %-11s", m.Name, v.Value, v.Unit)
		if xs := rec.Samples[m.Name]; len(xs) > 1 {
			q1, _, q3 := quartiles(xs)
			fmt.Fprintf(w, " IQR %-10.4g n=%d", scaled(m.Unit, q3-q1, rec.HostFactor), len(xs))
			if p, t, ok := tail(xs); ok {
				fmt.Fprintf(w, " p%g %.4g", p, scaled(m.Unit, t, rec.HostFactor))
			}
		}
		fmt.Fprintln(w)
	}
	if rec.Trace == 1 {
		tr.printSelfTimes(w)
	}
}

// gitSHA returns the commit checked out in the working directory, read
// from .git without running git; "" outside a git checkout.
func gitSHA() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return ""
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if sha, err := os.ReadFile(filepath.Join(".git", filepath.FromSlash(ref))); err == nil {
		return strings.TrimSpace(string(sha))
	}
	packed, err := os.ReadFile(filepath.Join(".git", "packed-refs"))
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, name, ok := strings.Cut(strings.TrimSpace(line), " "); ok && name == ref {
			return sha
		}
	}
	return ""
}

// selectWorkloads returns the workloads name selects ("all" for every one),
// after checking that the program and the spec name the same workloads.
func selectWorkloads(spec *benchSpec, name string, short bool) ([]*workload, error) {
	ws := workloads(short)
	var specNames, ours []string
	for _, s := range spec.Workloads {
		specNames = append(specNames, s.Name)
	}
	for _, w := range ws {
		ours = append(ours, w.name)
	}
	if strings.Join(specNames, ",") != strings.Join(ours, ",") {
		return nil, fmt.Errorf("BENCHMARK.json names workloads %v, the benchmark runs %v", specNames, ours)
	}
	if name == "all" {
		return ws, nil
	}
	for _, w := range ws {
		if w.name == name {
			return []*workload{w}, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q (want all or one of %v)", name, ours)
}

// quietLogs discards the job service's request and job logs. They are
// still formatted, so their cost stays in the measurement.
func quietLogs() { slog.SetDefault(slog.New(slog.NewTextHandler(io.Discard, nil))) }

func main() {
	var (
		workloadName = flag.String("workload", "all", "workload to run, or all")
		seed         = flag.Int64("seed", 1, "seed every generated input derives from")
		seconds      = flag.Float64("seconds", 0, "measuring time per run; 0 takes run_seconds from the spec")
		trace        = flag.Int("trace", 0, "1 runs the traced per-layer run instead of the end-to-end one")
		jsonOut      = flag.String("json", "", "append one JSON record per run to this file")
		compare      = flag.Bool("compare", false, "compare two files of -json records (-compare A B); exits 1 when a metric is worse")
		specPath     = flag.String("spec", "BENCHMARK.json", "path of BENCHMARK.json")
		short        = flag.Bool("short", false, "toy-scale inputs (n ≈ 2k) for a quick check")
	)
	flag.Parse()
	spec, err := loadSpec(*specPath)
	if err != nil {
		fatal(2, err)
	}
	if *compare {
		if flag.NArg() != 2 {
			fatal(2, fmt.Errorf("-compare takes two files"))
		}
		a, err := readRecords(flag.Arg(0))
		if err != nil {
			fatal(2, err)
		}
		b, err := readRecords(flag.Arg(1))
		if err != nil {
			fatal(2, err)
		}
		if !compareSets(spec, a, b, os.Stdout) {
			os.Exit(1)
		}
		return
	}
	if *trace != 0 && *trace != 1 {
		fatal(2, fmt.Errorf("-trace is 0 or 1, got %d", *trace))
	}
	ws, err := selectWorkloads(spec, *workloadName, *short)
	if err != nil {
		fatal(2, err)
	}
	if *seconds <= 0 {
		*seconds = float64(spec.RunSeconds)
	}
	cfg := config{
		spec: spec, seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)),
		trace: *trace == 1, short: *short,
		outDir: filepath.Join(filepath.Dir(*specPath), "benchmark", "out"),
	}
	quietLogs()
	ok := true
	for _, w := range ws {
		rec, err := runWorkload(w, cfg)
		if err != nil {
			fatal(1, err)
		}
		if *jsonOut != "" {
			if err := appendRecord(*jsonOut, rec); err != nil {
				fatal(1, err)
			}
		}
		line, err := json.Marshal(rec.summary())
		if err != nil {
			fatal(1, err)
		}
		fmt.Println(string(line))
		ok = ok && rec.Correct
	}
	if !ok {
		os.Exit(1)
	}
}

// appendRecord appends rec as one JSON line to path.
func appendRecord(path string, rec *record) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(rec); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fatal(code int, err error) {
	fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
	os.Exit(code)
}
