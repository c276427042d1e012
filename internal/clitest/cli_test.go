// Package clitest builds the repository's command-line binaries and runs
// them end to end: generate a graph, detect communities on it with several
// algorithms, regenerate an experiment table — the full user workflow.
package clitest

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"nulpa/internal/health"
	"nulpa/internal/trace"
)

var binDir string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "nulpa-cli")
	if err != nil {
		panic(err)
	}
	binDir = dir
	for _, tool := range []string{"nulpa", "bench", "graphgen"} {
		cmd := exec.Command("go", "build", "-o", filepath.Join(dir, tool), "nulpa/cmd/"+tool)
		if out, err := cmd.CombinedOutput(); err != nil {
			panic("building " + tool + ": " + err.Error() + "\n" + string(out))
		}
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

func run(t *testing.T, tool string, args ...string) (string, error) {
	t.Helper()
	cmd := exec.Command(filepath.Join(binDir, tool), args...)
	// Run from a scratch directory so nothing a tool writes relative to the
	// cwd can litter the repo tree.
	cmd.Dir = t.TempDir()
	out, err := cmd.CombinedOutput()
	return string(out), err
}

func mustRun(t *testing.T, tool string, args ...string) string {
	t.Helper()
	out, err := run(t, tool, args...)
	if err != nil {
		t.Fatalf("%s %v: %v\n%s", tool, args, err, out)
	}
	return out
}

func TestNulpaOnGeneratedGraph(t *testing.T) {
	out := mustRun(t, "nulpa", "-gen", "planted", "-n", "2000", "-deg", "10")
	for _, want := range []string{"graph:", "algo: nulpa", "iterations:", "communities="} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestNulpaAllAlgorithms(t *testing.T) {
	for _, algo := range []string{"flpa", "plp", "gvelpa", "gunrock", "louvain", "slpa", "copra", "labelrank"} {
		out := mustRun(t, "nulpa", "-gen", "planted", "-n", "500", "-deg", "10", "-algo", algo)
		if !strings.Contains(out, "algo: "+algo) {
			t.Errorf("%s: unexpected output:\n%s", algo, out)
		}
	}
}

func TestNulpaDirectBackendAndFlags(t *testing.T) {
	out := mustRun(t, "nulpa", "-gen", "road", "-n", "3000",
		"-algo", "nulpa-direct", "-pickless", "2", "-crosscheck", "3", "-probing", "double", "-f64")
	if !strings.Contains(out, "converged: true") {
		t.Errorf("run did not converge:\n%s", out)
	}
}

func TestNulpaOOMBudget(t *testing.T) {
	out, err := run(t, "nulpa", "-gen", "er", "-n", "5000", "-deg", "8", "-membudget", "1024")
	if err == nil {
		t.Fatalf("tiny memory budget did not fail:\n%s", out)
	}
	if !strings.Contains(out, "does not fit on device") {
		t.Errorf("unexpected OOM message:\n%s", out)
	}
}

func TestNulpaMembudgetOnlySingleDevice(t *testing.T) {
	// Only the single-device simt run has a device whose budget the flag
	// sets; elsewhere it would be silently ignored, so it is refused.
	for _, args := range [][]string{
		{"-algo", "nulpa-direct"},
		{"-algo", "nulpa-sharded"},
		{"-shards", "2"},
		{"-algo", "flpa"},
	} {
		args = append([]string{"-gen", "er", "-n", "500", "-membudget", "1024"}, args...)
		out, err := run(t, "nulpa", args...)
		if err == nil {
			t.Errorf("nulpa %v succeeded:\n%s", args, out)
			continue
		}
		if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 2 {
			t.Errorf("nulpa %v: %v, want exit status 2", args, err)
		}
		if !strings.Contains(out, "-membudget applies only") {
			t.Errorf("nulpa %v: unexpected message:\n%s", args, out)
		}
	}
}

// TestNulpaFaultsOnDirect: the direct configuration runs on a device, so
// -faults reaches it and its recovery is reported; a CPU baseline has no
// device to fault and refuses the flag.
func TestNulpaFaultsOnDirect(t *testing.T) {
	out := mustRun(t, "nulpa", "-gen", "planted", "-n", "2000", "-deg", "8", "-seed", "7",
		"-algo", "nulpa-direct", "-faults", "kernel=0.3,seed=2")
	for _, want := range []string{"faults recovered: ", "converged: true"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	out, err := run(t, "nulpa", "-gen", "planted", "-n", "500", "-algo", "flpa", "-faults", "kernel=0.3")
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 2 {
		t.Errorf("-faults on flpa: %v, want exit status 2\n%s", err, out)
	}
	if !strings.Contains(out, "-faults applies only") {
		t.Errorf("-faults on flpa: unexpected message:\n%s", out)
	}
}

func TestNulpaTraceExport(t *testing.T) {
	// -flight-out alone records the run's spans into the bundle: every span
	// schema-clean, and one trace connecting run → detect → iteration →
	// kernel. Both log formats must report the finished run, the json one
	// naming its trace.
	dir := t.TempDir()
	path := filepath.Join(dir, "flight.json")
	out := mustRun(t, "nulpa", "-gen", "planted", "-n", "2000", "-deg", "8", "-seed", "7",
		"-flight-out", path, "-log-format", "json")
	for _, want := range []string{`"msg":"run finished"`, `"trace":"`} {
		if !strings.Contains(out, want) {
			t.Errorf("json log output missing %s:\n%s", want, out)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b, err := health.DecodeFlight(data)
	if err != nil {
		t.Fatalf("flight bundle: %v", err)
	}
	if len(b.Spans) == 0 {
		t.Fatal("flight bundle has no spans")
	}
	for i, d := range b.Spans {
		if err := checkSpan(d); err != nil {
			t.Fatalf("span %d: %v", i, err)
		}
	}
	if id, err := connectedTrace(b.Spans, "run"); err != nil {
		t.Fatalf("span export: %v", err)
	} else if id != b.Trace {
		t.Errorf("connected trace %s, bundle names trace %s", id, b.Trace)
	}

	out = mustRun(t, "nulpa", "-gen", "planted", "-n", "2000", "-deg", "8", "-seed", "7",
		"-flight-out", filepath.Join(dir, "flight2.json"), "-log-format", "text")
	if !strings.Contains(out, `msg="run finished"`) {
		t.Errorf("text log output missing run finished:\n%s", out)
	}
}

// checkSpan is one exported span's schema check: 16-hex-digit ids, a name,
// a start time, a non-negative duration and named events.
func checkSpan(d trace.SpanData) error {
	if _, err := trace.ParseTraceID(d.Trace); err != nil {
		return fmt.Errorf("bad trace id %q", d.Trace)
	}
	if len(d.Span) != 16 {
		return fmt.Errorf("bad span id %q", d.Span)
	}
	if d.Parent != "" && len(d.Parent) != 16 {
		return fmt.Errorf("bad parent id %q", d.Parent)
	}
	if d.Name == "" {
		return fmt.Errorf("span has no name")
	}
	if d.Start.IsZero() {
		return fmt.Errorf("span has no start time")
	}
	if d.DurationUS < 0 {
		return fmt.Errorf("negative duration %g", d.DurationUS)
	}
	for _, ev := range d.Events {
		if ev.Name == "" {
			return fmt.Errorf("event has no name")
		}
	}
	return nil
}

// connectedTrace returns the id of a trace in spans that links a parentless
// span named root to a "detect" descendant, an "iteration" descendant of
// that, and a kernel-launch ("kernel:…") descendant of that, through the
// recorded parent ids. BuildTree treats orphans as extra roots, so a broken
// parent link shows up as the chain not resolving. The search is depth
// first: it accepts a kernel nested under intermediate spans (a sharded
// run's shard-iteration) as readily as a direct child.
func connectedTrace(spans []trace.SpanData, root string) (string, error) {
	byTrace := map[string][]trace.SpanData{}
	for _, d := range spans {
		byTrace[d.Trace] = append(byTrace[d.Trace], d)
	}
	named := func(name string) func(string) bool {
		return func(n string) bool { return n == name }
	}
	for id, ts := range byTrace {
		for _, r := range trace.BuildTree(ts) {
			if r.Name != root || r.Parent != "" {
				continue
			}
			detect := findSpan(r.Children, named("detect"))
			if detect == nil {
				continue
			}
			iter := findSpan(detect.Children, named("iteration"))
			if iter == nil {
				continue
			}
			if findSpan(iter.Children, func(n string) bool { return strings.HasPrefix(n, "kernel:") }) != nil {
				return id, nil
			}
		}
	}
	return "", fmt.Errorf("%d schema-clean spans, but no trace connects %s → detect → iteration → kernel", len(spans), root)
}

// findSpan walks nodes depth-first for a span whose name satisfies match.
func findSpan(nodes []*trace.Node, match func(string) bool) *trace.Node {
	for _, n := range nodes {
		if match(n.Name) {
			return n
		}
		if hit := findSpan(n.Children, match); hit != nil {
			return hit
		}
	}
	return nil
}

func TestNulpaHealthFlightDump(t *testing.T) {
	// Every simt launch fails (kernel=1), so the run must degrade to the
	// sequential direct configuration after MaxRetries rollbacks, print
	// per-iteration health lines, and auto-dump a flight bundle whose
	// capture reason is "degraded".
	path := filepath.Join(t.TempDir(), "flight.json")
	out := mustRun(t, "nulpa", "-gen", "planted", "-n", "2000", "-deg", "8", "-seed", "7",
		"-faults", "kernel=1,seed=2", "-health", "-flight-out", path)
	for _, want := range []string{"degraded: simt backend faulted beyond recovery", "degraded after 3 rollbacks", "health iter=", "flight: wrote " + path} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b, err := health.DecodeFlight(data)
	if err != nil {
		t.Fatalf("flight bundle: %v", err)
	}
	if err := b.Validate(); err != nil {
		t.Fatalf("flight bundle: %v", err)
	}
	if b.Reason != "degraded" {
		t.Errorf("flight bundle reason = %q, want degraded", b.Reason)
	}
}

// TestNulpaHealthThreshold pins the monitor to the run's own convergence
// bound: a default-options run stops once ΔN falls below τ·|V| (τ = 0.05),
// so its last frame predicts no further iterations and the flight bundle
// records that bound, not the monitor's fallback of 1.
func TestNulpaHealthThreshold(t *testing.T) {
	path := filepath.Join(t.TempDir(), "flight.json")
	out := mustRun(t, "nulpa", "-gen", "web", "-n", "5000", "-sms", "1", "-health", "-flight-out", path)
	if !strings.Contains(out, "converged: true") {
		t.Fatalf("run did not converge:\n%s", out)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b, err := health.DecodeFlight(data)
	if err != nil {
		t.Fatalf("flight bundle: %v", err)
	}
	if want := 0.05 * float64(b.Vertices); b.Vertices != 5000 || b.Threshold != want {
		t.Errorf("bundle threshold %v for %d vertices, want %v", b.Threshold, b.Vertices, want)
	}
	if len(b.Frames) == 0 {
		t.Fatal("bundle has no frames")
	}
	if last := b.Frames[len(b.Frames)-1]; last.ETAIterations != 0 {
		t.Errorf("last frame (ΔN %d) predicts %v more iterations, want 0", last.DeltaN, last.ETAIterations)
	}
}

func TestNulpaQualityLine(t *testing.T) {
	// The planted graph's structure is strong (8 intra-community edges per
	// vertex against about one foreign one), so exact Q must clear 0.3, and
	// the incremental estimator must agree with the exact recompute to 1e-6.
	const qFloor, driftMax = 0.3, 1e-6
	out := mustRun(t, "nulpa", "-algo", "nulpa", "-gen", "planted", "-n", "2000", "-deg", "8", "-seed", "7", "-quality")
	var live, exact, drift, maxDrift float64
	var recomputes int
	found := false
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "quality: live Q") {
			continue
		}
		if _, err := fmt.Sscanf(line, "quality: live Q %g vs exact %g (drift %g, max %g over %d recomputes)",
			&live, &exact, &drift, &maxDrift, &recomputes); err != nil {
			t.Fatalf("unparseable quality line %q: %v", line, err)
		}
		found = true
	}
	if !found {
		t.Fatalf("no quality line in output:\n%s", out)
	}
	if exact < qFloor {
		t.Errorf("exact Q %.4f below planted floor %.2f", exact, qFloor)
	}
	if d := math.Abs(live - exact); d > driftMax {
		t.Errorf("live Q %.6f vs exact %.6f: drift %g beyond %g", live, exact, d, driftMax)
	}
	if maxDrift > driftMax {
		t.Errorf("max sampled drift %g beyond %g", maxDrift, driftMax)
	}
	if !strings.Contains(out, "\ncensus: ") {
		t.Errorf("output missing census line:\n%s", out)
	}
}

func TestNulpaBadFlags(t *testing.T) {
	cases := [][]string{
		{"-gen", "nope"},
		{},
		{"-gen", "er", "-algo", "nope"},
		{"-gen", "er", "-probing", "nope"},
		{"-graph", "/does/not/exist.bin"},
	}
	for _, args := range cases {
		if out, err := run(t, "nulpa", args...); err == nil {
			t.Errorf("nulpa %v succeeded unexpectedly:\n%s", args, out)
		}
	}
}

func TestGraphgenFormatsAndReload(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"g.txt", "g.bin", "g.mtx", "g.graph"} {
		path := filepath.Join(dir, name)
		out := mustRun(t, "graphgen", "-type", "road", "-n", "1000", "-o", path)
		if !strings.Contains(out, "wrote "+path) {
			t.Errorf("graphgen output: %s", out)
		}
		// The generated file must load back through the main tool.
		out = mustRun(t, "nulpa", "-graph", path, "-algo", "flpa")
		if !strings.Contains(out, "communities=") {
			t.Errorf("reload of %s failed:\n%s", name, out)
		}
	}
}

func TestWriteLabels(t *testing.T) {
	dir := t.TempDir()
	labels := filepath.Join(dir, "labels.txt")
	mustRun(t, "nulpa", "-gen", "planted", "-n", "300", "-deg", "10", "-write-labels", labels)
	data, err := os.ReadFile(labels)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 300 {
		t.Fatalf("labels file has %d lines, want 300", len(lines))
	}
	for i, line := range lines {
		var c int
		fmt.Sscanf(line, "%d %d", new(int), &c)
		if line != fmt.Sprintf("%d %d", i, c) || c < 0 || c >= 300 {
			t.Fatalf("line %d = %q, want \"%d <label in [0,300)>\"", i, line, i)
		}
	}
	// A failed write must fail the run, not vanish in an unchecked buffer.
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full on this system")
	}
	if out, err := run(t, "nulpa", "-gen", "planted", "-n", "300", "-deg", "10", "-write-labels", "/dev/full"); err == nil {
		t.Errorf("-write-labels /dev/full exited 0:\n%s", out)
	}
}

func TestNulpaTraceTable(t *testing.T) {
	out := mustRun(t, "nulpa", "-gen", "planted", "-n", "1000", "-deg", "10", "-trace")
	// The table comes from telemetry.FormatIters — header columns plus the
	// kernel summary that only the profiler hook can produce.
	for _, want := range []string{"iter", "moves", "deltaN", "t-kernel", "kernel", "launches", "SM busy"} {
		if !strings.Contains(out, want) {
			t.Errorf("-trace output missing %q:\n%s", want, out)
		}
	}
	// Baselines render through the same records.
	out = mustRun(t, "nulpa", "-gen", "planted", "-n", "500", "-deg", "10", "-algo", "flpa", "-trace")
	if !strings.Contains(out, "deltaN") {
		t.Errorf("flpa -trace output missing table:\n%s", out)
	}
}

func TestNulpaProfileWritesChromeTrace(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "trace.json")
	out := mustRun(t, "nulpa", "-gen", "planted", "-n", "1000", "-deg", "10", "-profile", path)
	if !strings.Contains(out, "profile: wrote "+path) {
		t.Errorf("missing profile confirmation:\n%s", out)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			Cat  string `json:"cat"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("profile is not valid JSON: %v", err)
	}
	var slices, counters, meta int
	runSpan := false
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "X":
			slices++
			runSpan = runSpan || ev.Cat == "span" && ev.Name == "run"
		case "C":
			counters++
		case "M":
			meta++
		}
	}
	if slices == 0 || counters == 0 || meta == 0 {
		t.Errorf("trace has slices=%d counters=%d metadata=%d, want all > 0", slices, counters, meta)
	}
	if !runSpan {
		t.Error("profile has no slice for the run's root span")
	}
}

func TestBenchJSONExport(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "report.json")
	mustRun(t, "bench", "-experiment", "fig-iters", "-scale", "small", "-graphs", "asia_osm", "-json", path)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var report struct {
		Scale  string `json:"scale"`
		Tables []struct {
			ID     string `json:"id"`
			Series []struct {
				Name   string    `json:"name"`
				Values []float64 `json:"values"`
			} `json:"series"`
		} `json:"tables"`
	}
	if err := json.Unmarshal(data, &report); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	if report.Scale != "small" || len(report.Tables) == 0 {
		t.Fatalf("report = %+v", report)
	}
	tbl := report.Tables[0]
	if tbl.ID != "fig-iters" {
		t.Errorf("table id = %q", tbl.ID)
	}
	if len(tbl.Series) == 0 {
		t.Fatal("fig-iters table has no per-iteration series")
	}
	names := map[string]bool{}
	for _, s := range tbl.Series {
		names[s.Name] = true
		if len(s.Values) == 0 {
			t.Errorf("series %q is empty", s.Name)
		}
	}
	if !names["deltaN"] || !names["iter-ms"] {
		t.Errorf("series names = %v, want deltaN and iter-ms", names)
	}
}

func TestBenchSingleExperiment(t *testing.T) {
	out := mustRun(t, "bench", "-experiment", "tab-dataset", "-scale", "small", "-graphs", "asia_osm")
	if !strings.Contains(out, "tab-dataset") || !strings.Contains(out, "asia_osm") {
		t.Errorf("bench output:\n%s", out)
	}
}

func TestBenchBadFlags(t *testing.T) {
	if out, err := run(t, "bench", "-scale", "nope"); err == nil {
		t.Errorf("bad scale accepted:\n%s", out)
	}
	if out, err := run(t, "bench", "-experiment", "fig-nope"); err == nil {
		t.Errorf("bad experiment accepted:\n%s", out)
	}
}
