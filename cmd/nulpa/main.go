// Command nulpa runs community detection on a graph with any algorithm in
// the engine registry and reports runtime, iteration count, community count,
// and modularity. `-algo list` names every registered detector.
//
// The input graph comes either from a file (-graph, format by extension:
// .mtx Matrix Market, .bin/.nlpg binary, .graph/.metis METIS, otherwise
// edge list) or from a generator (-gen web|social|rmat|road|kmer|er|planted|rgg
// with -n/-deg/-seed). -write-graph saves that graph in the format its
// extension names instead of detecting, which converts between formats and
// writes generated datasets to disk.
//
// With -serve the command instead starts the monitoring server
// (internal/httpapi): detections run as jobs submitted over HTTP, and
// /metrics exposes the live metrics registry while they run. When -gen or
// -graph is also given, an initial job is submitted at startup.
//
// Examples:
//
//	nulpa -gen web -n 100000 -deg 8
//	nulpa -graph mygraph.mtx -algo louvain
//	nulpa -gen social -n 65536 -algo nulpa-direct -pickless 4
//	nulpa -gen road -n 1000000 -seed 7 -write-graph asia_osm_like.bin
//	nulpa -serve :8080
//	nulpa -serve :8080 -gen web -n 1000000 -algo nulpa
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"math"
	"os"
	"os/signal"
	"strconv"
	"syscall"
	"time"

	"nulpa/internal/engine"
	_ "nulpa/internal/engine/all"
	"nulpa/internal/faults"
	"nulpa/internal/graph"
	"nulpa/internal/hashtable"
	"nulpa/internal/health"
	"nulpa/internal/httpapi"
	"nulpa/internal/nulpa"
	"nulpa/internal/quality"
	"nulpa/internal/sched"
	"nulpa/internal/simt"
	"nulpa/internal/telemetry"
	"nulpa/internal/trace"
)

func main() {
	var (
		graphPath = flag.String("graph", "", "input graph file, format by extension: "+graph.Formats)
		graphOut  = flag.String("write-graph", "", "write the input graph to this file (format by extension: "+graph.Formats+") and exit without detecting")
		genName   = flag.String("gen", "", "generator: "+httpapi.Generators)
		n         = flag.Int("n", 100000, "generator vertex count (rmat: rounded to a power of two)")
		deg       = flag.Int("deg", 8, "generator average degree parameter")
		seed      = flag.Int64("seed", 1, "generator / algorithm seed")
		algo      = flag.String("algo", "nulpa", "registry name of the detector to run, or 'list'")
		shards    = flag.Int("shards", 0, "nulpa: number of simulated devices; 1 is the single-device run (>0 turns -algo nulpa into nulpa-sharded, default 4)")
		pickless  = flag.Int("pickless", -1, "nulpa: apply Pick-Less every N iterations (0 = off, -1 = the detector's default)")
		crosschk  = flag.Int("crosscheck", 0, "nulpa: apply Cross-Check every N iterations (0 = off)")
		probing   = flag.String("probing", "quadratic-double", "nulpa: linear, quadratic, double, quadratic-double")
		switchDeg = flag.Int("switch", 32, "nulpa: thread/block kernel switch degree")
		f64       = flag.Bool("f64", false, "nulpa: use float64 hashtable values")
		sms       = flag.Int("sms", 0, "parallelism: simulated SMs per device for the ν-LPA detectors, worker goroutines for plp, gvelpa, gunrock and louvain (louvain: >1 selects the parallel sweep); 0 = host parallelism")
		membudget = flag.Int64("membudget", 0, "-algo nulpa only: the single device's memory budget in bytes (0 = unlimited)")
		writeTo   = flag.String("write-labels", "", "write 'vertex label' lines to this file")
		iterTrace = flag.Bool("trace", false, "print per-iteration telemetry as a table")
		profileTo = flag.String("profile", "", "write a Chrome trace-event JSON of the device timeline and the run's spans (load in chrome://tracing) to this file")
		logFormat = flag.String("log-format", "text", "log line format on stderr: text or json")
		serveAddr = flag.String("serve", "", "run the monitoring HTTP server on this address (e.g. :8080) instead of a one-shot detection")
		srvWork   = flag.Int("workers", 0, "serve: device-pool worker count (0 = GOMAXPROCS)")
		srvQueue  = flag.Int("queue-depth", 0, "serve: admission queue depth before shedding 429s (0 = default)")
		srvQuota  = flag.Float64("quota", 0, "serve: per-tenant admission rate in jobs/s, keyed on X-Tenant (0 = no quotas)")
		faultSpec = flag.String("faults", "", "nulpa, nulpa-direct, nulpa-sharded: inject faults, e.g. 'kernel=0.01,bitflip=0.01,seed=7' (chaos testing)")
		deadline  = flag.Duration("deadline", 0, "abort the one-shot detection after this duration (0 = no deadline)")
		healthOn  = flag.Bool("health", false, "print a convergence-health summary line per iteration")
		qualityOn = flag.Bool("quality", false, "run the live quality plane and print the final census with a live-vs-exact modularity line")
		flightOut = flag.String("flight-out", "", "write the run's flight-recorder bundle (post-mortem JSON with its health frames and spans) to this file")
	)
	flag.Parse()

	switch *logFormat {
	case "json":
		slog.SetDefault(slog.New(slog.NewJSONHandler(os.Stderr, nil)))
	case "text":
		slog.SetDefault(slog.New(slog.NewTextHandler(os.Stderr, nil)))
	default:
		fmt.Fprintf(os.Stderr, "nulpa: bad -log-format %q (text or json)\n", *logFormat)
		os.Exit(2)
	}

	if *graphOut != "" {
		g, err := loadGraph(*graphPath, *genName, *n, *deg, *seed)
		if err == nil {
			err = graph.WriteFile(*graphOut, g)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "nulpa: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s: %s\n", *graphOut, graph.ComputeStats(g))
		return
	}

	if *serveAddr != "" {
		serve(*serveAddr, *algo, *graphPath, *genName, *n, *deg, *seed,
			sched.Config{Workers: *srvWork, QueueDepth: *srvQueue, QuotaRate: *srvQuota})
		return
	}

	if *algo == "list" {
		for _, name := range engine.List() {
			fmt.Println(name)
		}
		return
	}

	// A -shards count turns the single-device ν-LPA run into the sharded one.
	name := *algo
	if name == "nulpa" && *shards > 0 {
		name = "nulpa-sharded"
	}
	nopt, nuLPA := nulpa.Defaults(name)
	det, err := engine.MustGet(name)
	if err != nil {
		fmt.Fprintf(os.Stderr, "nulpa: bad -algo %q: %v\n", *algo, err)
		os.Exit(2)
	}

	// -trace and -profile render the same telemetry records, so they can
	// never disagree: the recorder is attached whenever either is on. The
	// health monitor rides the same recorder as its iteration sink.
	var rec *telemetry.Recorder
	if *iterTrace || *profileTo != "" || *healthOn || *flightOut != "" || *qualityOn {
		rec = telemetry.NewRecorder()
	}

	eopt := engine.DefaultOptions()
	eopt.Seed = *seed
	eopt.Workers = *sms
	eopt.Profiler = rec
	if *qualityOn {
		eopt.Quality = engine.QualityConfig{Enabled: true}
	}
	runCtx := context.Background()
	if *deadline > 0 {
		ctx, cancel := context.WithTimeout(runCtx, *deadline)
		defer cancel()
		runCtx = ctx
	}
	// A run that writes a file records its spans too: a "run" root span
	// whose children (detect → iteration → kernel) land in the flight bundle
	// and in the -profile document, the same spans /debug/trace serves.
	var runSpan *trace.Span
	if *flightOut != "" || *profileTo != "" {
		trace.Default().SetEnabled(true)
		runCtx, runSpan = trace.Default().Root(runCtx, "run")
		runSpan.SetString("algo", name)
	}
	eopt.Context = runCtx
	if *faultSpec != "" && !nuLPA {
		fmt.Fprintf(os.Stderr, "nulpa: -faults applies only to the ν-LPA detectors (nulpa, nulpa-direct, nulpa-sharded)\n")
		os.Exit(2)
	}
	if *membudget != 0 && name != "nulpa" {
		fmt.Fprintf(os.Stderr, "nulpa: -membudget applies only to the single-device -algo nulpa run\n")
		os.Exit(2)
	}
	if nuLPA {
		// The ν-LPA-specific flags travel through Extra, which no other
		// detector takes.
		if *shards > 0 {
			nopt.Shards = *shards
		}
		if *pickless >= 0 {
			nopt.PickLessEvery = *pickless
		}
		nopt.CrossCheckEvery = *crosschk
		nopt.SwitchDegree = *switchDeg
		if *f64 {
			nopt.ValueKind = hashtable.Float64
		}
		switch *probing {
		case "linear":
			nopt.Probing = hashtable.Linear
		case "quadratic":
			nopt.Probing = hashtable.Quadratic
		case "double":
			nopt.Probing = hashtable.Double
		case "quadratic-double":
			nopt.Probing = hashtable.QuadraticDouble
		default:
			fmt.Fprintf(os.Stderr, "nulpa: bad -probing %q\n", *probing)
			os.Exit(2)
		}
		if *membudget != 0 {
			nopt.Device = simt.NewDevice(*sms)
			nopt.Device.MemBudget = *membudget
		}
		if *faultSpec != "" {
			// On a sharded run the injector applies to every shard device;
			// per-shard injection is an API-level knob (ShardFaults).
			spec, err := faults.ParseSpec(*faultSpec)
			if err != nil {
				fmt.Fprintf(os.Stderr, "nulpa: bad -faults: %v\n", err)
				os.Exit(2)
			}
			nopt.Faults = faults.New(spec)
			fmt.Printf("faults: %s\n", spec)
		}
		eopt.Extra = nopt
	}

	g, err := loadGraph(*graphPath, *genName, *n, *deg, *seed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "nulpa: %v\n", err)
		os.Exit(1)
	}
	st := graph.ComputeStats(g)
	fmt.Printf("graph: %s\n", st)

	// -health / -flight-out attach the convergence monitor to the recorder's
	// iteration stream: a terminal summary line per iteration, and a
	// post-mortem flight bundle on exit.
	var mon *health.Monitor
	if *healthOn || *flightOut != "" {
		hcfg := health.Config{Detector: name, Vertices: g.NumVertices(), Span: runSpan}
		if *healthOn {
			hcfg.OnFrame = printHealthFrame
		}
		mon = health.New(hcfg)
		rec.SetSink(mon)
	}

	res, err := det.Detect(g, eopt)
	if runSpan != nil {
		if err != nil {
			runSpan.SetString("error", err.Error())
		}
		runSpan.End()
		slog.Info("run finished", "algo", name,
			"trace", runSpan.TraceID().String(), "error", err != nil)
	}
	// The flight bundle is written even for a failed run — a deadline abort
	// is exactly the run one wants to inspect frame by frame and span by
	// span.
	if mon != nil {
		reason := "request"
		switch {
		case err != nil && errors.Is(err, engine.ErrDeadline):
			reason = "deadline"
		case err != nil && errors.Is(err, engine.ErrCanceled):
			reason = "canceled"
		case err != nil:
			reason = "fault"
		default:
			if nres, ok := res.Extra.(*nulpa.Result); ok && nres.Degraded {
				reason = "degraded"
				mon.RecordEvent("fallback:direct", "simt backend degraded to direct")
			}
		}
		if err != nil {
			mon.RecordEvent(reason, err.Error())
		}
		mon.Close()
		if *flightOut != "" {
			if werr := writeFlightOut(*flightOut, mon, reason); werr != nil {
				fmt.Fprintf(os.Stderr, "nulpa: %v\n", werr)
				os.Exit(1)
			}
			fmt.Printf("flight: wrote %s (reason %s)\n", *flightOut, reason)
		}
	}
	if err != nil {
		if errors.Is(err, engine.ErrDeadline) {
			fmt.Fprintf(os.Stderr, "nulpa: deadline of %v exceeded\n", *deadline)
			os.Exit(3)
		}
		fmt.Fprintf(os.Stderr, "nulpa: %v\n", err)
		os.Exit(1)
	}
	if nres, ok := res.Extra.(*nulpa.Result); ok {
		switch retries := telemetry.Sum(nres.Trace).Retries; {
		case nres.Degraded:
			fmt.Printf("degraded: simt backend faulted beyond recovery; degraded after %d rollbacks to a sequential rerun in the direct configuration\n",
				nres.Rollbacks)
		case retries > 0 || nres.Rollbacks > 0:
			fmt.Printf("faults recovered: %d retries, %d rollbacks\n", retries, nres.Rollbacks)
		}
		if len(nres.ShardStats) > 1 {
			var halo int64
			for _, ss := range nres.ShardStats {
				halo += ss.HaloLabelsIn
			}
			fmt.Printf("shards: %d  halo labels: %d  cut arcs: %d\n",
				len(nres.ShardStats), halo, nres.CutArcs)
			for _, ss := range nres.ShardStats {
				fmt.Printf("  shard %d: %d owned, %d ghosts, %s device memory, %d flips, %d communities\n",
					ss.Shard, ss.Owned, ss.Ghosts, fmtBytes(ss.DeviceBytes), ss.Moves, ss.Communities)
			}
		}
	}

	sum := quality.Summarize(g, res.Labels)
	rate := float64(st.NumArcs) / res.Duration.Seconds() / 1e6
	fmt.Printf("algo: %s\n", *algo)
	fmt.Printf("time: %v (%.1fM arcs/s)\n", res.Duration.Round(time.Microsecond), rate)
	fmt.Printf("iterations: %d  converged: %v\n", res.Iterations, res.Converged)
	fmt.Printf("result: %s\n", sum)
	if q := res.Quality; q != nil {
		fmt.Printf("quality: live Q %.6f vs exact %.6f (drift %.2e, max %.2e over %d recomputes)\n",
			q.Estimate, q.Modularity, q.Drift, q.MaxDrift, q.Recomputes)
		fmt.Printf("census: %d communities  giant %.1f%%  singletons %.1f%%  entropy %.3f nats\n",
			q.Communities, 100*q.GiantShare, 100*q.SingletonRate, q.Entropy)
		fmt.Printf("sizes: 1:%d 2-4:%d 5-16:%d 17-64:%d 65-256:%d 257-1024:%d >1024:%d\n",
			q.SizeBuckets[0], q.SizeBuckets[1], q.SizeBuckets[2], q.SizeBuckets[3],
			q.SizeBuckets[4], q.SizeBuckets[5], q.SizeBuckets[6])
		fmt.Printf("churn: %d flips (low-deg %d, mid %d, high %d)",
			q.Flips, q.FlipsLow, q.FlipsMid, q.FlipsHigh)
		if q.ChurnValid {
			fmt.Printf("  snapshot NMI %.4f", q.ChurnNMI)
		}
		fmt.Println()
	}

	if *iterTrace {
		fmt.Print(telemetry.FormatIters(res.Trace))
		if s := rec.Summary(); s != "" {
			fmt.Print(s)
		}
	}
	if *profileTo != "" {
		f, err := os.Create(*profileTo)
		if err != nil {
			fmt.Fprintf(os.Stderr, "nulpa: %v\n", err)
			os.Exit(1)
		}
		if err := telemetry.WriteChromeTrace(f, rec, trace.Default().TraceSpans(runSpan.TraceID())); err != nil {
			fmt.Fprintf(os.Stderr, "nulpa: %v\n", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "nulpa: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("profile: wrote %s (load in chrome://tracing)\n", *profileTo)
	}

	if *writeTo != "" {
		if err := writeLabels(*writeTo, res.Labels); err != nil {
			fmt.Fprintf(os.Stderr, "nulpa: %v\n", err)
			os.Exit(1)
		}
	}
}

// writeLabels writes one "vertex label" line per vertex to path. The
// buffered writer keeps the first write error and returns it from Flush.
func writeLabels(path string, labels []uint32) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	var line []byte
	for v, c := range labels {
		line = strconv.AppendInt(line[:0], int64(v), 10)
		line = append(line, ' ')
		line = strconv.AppendUint(line, uint64(c), 10)
		line = append(line, '\n')
		w.Write(line)
	}
	return errors.Join(w.Flush(), f.Close())
}

// fmtBytes renders a byte count with a binary-unit suffix.
func fmtBytes(b int64) string {
	switch {
	case b >= 1<<20:
		return fmt.Sprintf("%.1f MiB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1f KiB", float64(b)/(1<<10))
	}
	return fmt.Sprintf("%d B", b)
}

// printHealthFrame is the -health terminal line: one compact summary per
// iteration, straggler fields appearing only on sharded runs.
func printHealthFrame(f health.Frame) {
	eta := "?"
	if f.ETAIterations >= 0 {
		eta = strconv.Itoa(int(math.Ceil(f.ETAIterations)))
	}
	line := fmt.Sprintf("health iter=%d state=%s deltaN=%d flip=%.4f slope=%+.3f eta=%s frontier=%.3f osc=%.2f",
		f.Iter, f.State, f.DeltaN, f.FlipRate, f.DecaySlope, eta, f.FrontierOccupancy, f.OscillationScore)
	if f.Shards > 1 {
		line += fmt.Sprintf(" shards=%d skew=%.2f waitUs=%.0f", f.Shards, f.StragglerSkew, f.BarrierWaitUS)
		if f.StragglerShard >= 0 {
			line += fmt.Sprintf(" straggler=%d", f.StragglerShard)
		}
	}
	if f.Retries > 0 {
		line += fmt.Sprintf(" retries=%d", f.Retries)
	}
	fmt.Println(line)
}

// writeFlightOut captures and writes the run's flight bundle.
func writeFlightOut(path string, mon *health.Monitor, reason string) error {
	b := mon.Flight(reason)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(b); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// loadGraph delegates to the shared GraphSpec so the CLI and the HTTP job
// plane accept exactly the same inputs.
func loadGraph(path, genName string, n, deg int, seed int64) (*graph.CSR, error) {
	spec := httpapi.GraphSpec{Path: path, Gen: genName, N: n, Deg: deg, Seed: seed}
	if path == "" && genName == "" {
		return nil, fmt.Errorf("need -graph or -gen (%s)", httpapi.Generators)
	}
	return spec.Build()
}

// serve runs the monitoring server, optionally submitting an initial job
// built from the one-shot flags.
func serve(addr, algo, graphPath, genName string, n, deg int, seed int64, scfg sched.Config) {
	srv := httpapi.NewServer(httpapi.WithScheduler(scfg))
	if graphPath != "" || genName != "" {
		st, err := srv.Submit(httpapi.JobSpec{
			Algo:  algo,
			Graph: httpapi.GraphSpec{Path: graphPath, Gen: genName, N: n, Deg: deg, Seed: seed},
			Seed:  seed,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "nulpa: initial job: %v\n", err)
			os.Exit(2)
		}
		fmt.Printf("job %d: %s on %s\n", st.ID, st.Algo, st.Graph)
	}
	fmt.Printf("serving on %s (GET /metrics, /healthz, /readyz, /jobs, /debug/live, /debug/trace, /debug/pprof)\n", addr)
	slog.Info("server listening", "addr", addr)

	// Serve until SIGINT/SIGTERM, then drain: stop accepting connections,
	// cancel in-flight jobs, and give handlers a bounded grace period.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	hs := httpapi.NewHTTPServer(addr, srv.Handler())
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	select {
	case err := <-errc:
		fmt.Fprintf(os.Stderr, "nulpa: %v\n", err)
		os.Exit(1)
	case <-ctx.Done():
	}
	fmt.Println("shutting down")
	slog.Info("server shutting down")
	// Fail readiness first so a load balancer drains traffic, then cancel
	// the in-flight jobs.
	srv.BeginDrain()
	srv.CancelAll()
	sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(sctx); err != nil {
		fmt.Fprintf(os.Stderr, "nulpa: shutdown: %v\n", err)
		os.Exit(1)
	}
	// Stop the device pool last: the queue is already drained (every queued
	// job was canceled above), so Stop only joins the workers.
	srv.Close()
}
