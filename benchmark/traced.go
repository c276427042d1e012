package main

import (
	"fmt"
	"time"

	"nulpa/internal/engine"
	"nulpa/internal/graph"
	"nulpa/internal/nulpa"
	"nulpa/internal/partition"
	"nulpa/internal/quality"
	"nulpa/internal/shard"
	"nulpa/internal/telemetry"
)

// probeJobs is how many jobs the traced run of a one-shot workload serves:
// the job service is not on that workload's path, so its layers are
// measured with the workload's detector on the jobs-web graph.
const probeJobs = 8

// superstepSink counts the BSP supersteps a sharded run reports to its
// profiler.
type superstepSink struct {
	supersteps int
	halo       int64
	wait       time.Duration
}

func (s *superstepSink) ObserveIteration(telemetry.IterRecord)  {}
func (s *superstepSink) ObserveQuality(telemetry.QualityRecord) {}
func (s *superstepSink) ObserveSuperstep(_ int, _ []time.Duration, wait time.Duration, exchanged int64) {
	s.supersteps++
	s.halo += exchanged
	s.wait += wait
}

// newProfiler returns a recorder with a superstep sink attached.
func newProfiler() (*telemetry.Recorder, *superstepSink) {
	rec, sink := telemetry.NewRecorder(), &superstepSink{}
	rec.SetSink(sink)
	return rec, sink
}

// runTraced measures each layer of the program on w's input. One-shot reps
// alternate between untraced and traced (a telemetry.Recorder attached as
// the profiler), then reference calls run once each: the direct and sharded
// backends, FLPA, and partition.Partition and shard.Build on their own. Last,
// the job service runs w's detector: for seconds/2 on jobs-web, as a short
// probe on the one-shot workloads.
func runTraced(w *workload, seed int64, seconds time.Duration, tr *tracer) (*result, error) {
	ins, _, err := setUp(w, seed, tr)
	if err != nil {
		return nil, err
	}
	if err := warmUp(w, ins, tr); err != nil {
		return nil, err
	}
	r := newResult()
	repTime := seconds
	if w.serve {
		repTime = seconds / 2
	}
	var plainDetect, tracedDetect []float64
	start := time.Now()
	for i := 0; i < 2 || time.Since(start) < repTime; i++ {
		var prof *telemetry.Recorder
		var sink *superstepSink
		if i%2 == 1 {
			prof, sink = newProfiler()
		}
		r.attempted++
		in := ins[i/2%len(ins)]
		rp, err := runRep(w, in, tr, prof)
		if err != nil {
			r.fail(err)
			continue
		}
		if prof == nil {
			plainDetect = append(plainDetect, rp.detect.Seconds())
			addUntraced(r, rp)
			continue
		}
		tracedDetect = append(tracedDetect, rp.detect.Seconds())
		addTraced(r, rp, prof)
		if w.sharded() {
			addShard(r, sink)
		}
		r.add("quality.modularity_ms", ms(tr.timed("modularity", tr.req(), 0, func() { quality.Modularity(in.g, rp.res.Labels) })))
	}
	r.add("telemetry.traced_detect_s", tracedDetect...)
	r.set("telemetry.overhead_x", median(tracedDetect)/median(plainDetect))

	if err := addReferences(r, w, ins[0].g, median(plainDetect), tr); err != nil {
		return nil, err
	}

	s := startService()
	defer s.close()
	more := func(i int, _ time.Duration) bool { return i < probeJobs }
	if w.serve {
		more = func(i int, elapsed time.Duration) bool { return i == 0 || elapsed < seconds/2 }
	}
	sv, err := serveLoop(s, w, seed, more, tr)
	if err != nil {
		return nil, err
	}
	addServing(r, sv)
	return r, nil
}

// addUntraced records the layers an untraced rep reports: its own timings
// and the kernel times in the per-iteration records every run returns.
func addUntraced(r *result, rp *rep) {
	res := rp.res
	r.add("graph.read_binary_ms", ms(rp.ingest))
	r.add("quality.summarize_ms", ms(rp.summarize))
	r.add("engine.iterations", float64(res.Iterations))
	r.add("engine.residual_ms", ms(rp.detect-res.Duration))
	var thread, kernels time.Duration
	for _, it := range res.Trace {
		thread += it.ThreadKernel
		kernels += it.ThreadKernel + it.BlockKernel + it.CrossKernel
	}
	r.add("nulpa.thread_kernel_ms", ms(thread))
	r.add("nulpa.block_kernel_share", ratio(float64(kernels-thread), float64(kernels)))
}

// addTraced records what only a profiled rep counts: the work ledger in its
// per-iteration records (edge visits, flips, active vertices, hashtable
// probes), and the profiler's kernel launches, SM busy and idle time and
// block-kernel lane use.
func addTraced(r *result, rp *rep, prof *telemetry.Recorder) {
	var visits, flips, active, probes, collisions int64
	for _, it := range rp.res.Trace {
		visits += it.EdgeVisits
		flips += it.Moves
		active += it.ActiveVertices
		probes += it.HashProbes
		collisions += it.HashCollisions
	}
	r.add("nulpa.edge_visits", float64(visits))
	r.add("nulpa.label_flips", float64(flips))
	r.add("nulpa.visits_per_flip", ratio(float64(visits), float64(flips)))
	r.add("nulpa.frontier_occupancy", ratio(float64(active), float64(rp.res.Iterations)*float64(rp.n)))
	r.add("hashtable.probes", float64(probes))
	r.add("hashtable.collisions", float64(collisions))
	r.add("hashtable.collision_rate", ratio(float64(collisions), float64(probes)))

	var busy, capacity time.Duration
	launches := prof.Launches()
	for _, l := range launches {
		capacity += l.End.Sub(l.Start) * time.Duration(len(l.SMs))
		for _, sm := range l.SMs {
			busy += sm.Busy()
		}
	}
	r.add("simt.launches", float64(len(launches)))
	r.add("simt.sm_busy_ms", ms(busy))
	r.add("simt.sm_idle_frac", 1-ratio(float64(busy), float64(capacity)))
	var blockVisits, blockLanes int64
	for _, k := range prof.KernelSummaries() {
		if k.Kernel == "block-per-vertex" {
			blockVisits, blockLanes = k.Work.EdgeVisits, k.Lanes
		}
	}
	r.add("nulpa.block_lane_efficiency", ratio(float64(blockVisits), float64(blockLanes)))
}

// addShard records a sharded run's BSP supersteps.
func addShard(r *result, sink *superstepSink) {
	r.add("shard.supersteps", float64(sink.supersteps))
	r.add("shard.halo_labels", float64(sink.halo))
	r.add("shard.barrier_wait_ms", ms(sink.wait))
}

// shardOptions is the partition detectSharded computes for nulpa-sharded
// with two shards.
func shardOptions() partition.Options {
	popt := partition.DefaultOptions(2)
	popt.Imbalance = 0.1
	popt.Restarts = 4
	return popt
}

// addReferences runs the reference calls on g: the direct backend, the
// sharded backend (unless it is the workload's own), FLPA, and the
// partitioner and shard.Build as nulpa-sharded calls them. simtDetect is
// the workload detector's median untraced Detect time.
func addReferences(r *result, w *workload, g *graph.CSR, simtDetect float64, tr *tracer) error {
	detect := func(name string, opt engine.Options) (*engine.Result, time.Duration, error) {
		det, err := engine.MustGet(name)
		if err != nil {
			return nil, 0, err
		}
		var res *engine.Result
		d := tr.timed(name, tr.req(), 0, func() { res, err = det.Detect(g, opt) })
		if err != nil {
			return nil, 0, fmt.Errorf("%s: %w", name, err)
		}
		return res, d, checkOutput(res, g.NumVertices(), 0, 0)
	}

	_, d, err := detect("nulpa-direct", engine.DefaultOptions())
	if err != nil {
		return err
	}
	r.set("nulpa.direct_detect_s", d.Seconds())
	r.set("nulpa.simt_overhead_x", simtDetect/d.Seconds())

	if !w.sharded() {
		opt := engine.DefaultOptions()
		sharded := nulpa.DefaultShardedOptions()
		sharded.Shards = 2
		opt.Extra = sharded
		var sink *superstepSink
		opt.Profiler, sink = newProfiler()
		if _, _, err := detect("nulpa-sharded", opt); err != nil {
			return err
		}
		addShard(r, sink)
	}

	res, d, err := detect("flpa", engine.DefaultOptions())
	if err != nil {
		return err
	}
	r.set("flpa.detect_s", d.Seconds())
	r.set("flpa.modularity", quality.Modularity(g, res.Labels))

	var pres *partition.Result
	d = tr.timed("partition", tr.req(), 0, func() { pres, err = partition.Partition(g, shardOptions()) })
	if err != nil {
		return fmt.Errorf("partition: %w", err)
	}
	r.set("partition.ms", ms(d))
	r.set("partition.cut_frac", pres.CutFraction)

	var plan *shard.Plan
	d = tr.timed("shard-build", tr.req(), 0, func() { plan, err = shard.Build(g, pres.Parts, 2) })
	if err != nil {
		return fmt.Errorf("shard build: %w", err)
	}
	ghosts := 0
	for _, sh := range plan.Shards {
		ghosts += len(sh.Ghosts)
	}
	r.set("shard.build_ms", ms(d))
	r.set("shard.ghost_rows", float64(ghosts))
	return nil
}

// addServing records the scheduler and HTTP layers of a closed loop.
func addServing(r *result, sv *serving) {
	r.set("sched.cache_hit_frac", sv.cacheHitFrac)
	for _, j := range sv.jobs {
		r.attempted++
		if j.err != nil {
			r.fail(j.err)
			continue
		}
		r.add("httpapi.submit_ms", ms(j.submit))
		if j.executed() {
			run := time.Duration(j.st.DurationMS * float64(time.Millisecond))
			r.add("httpapi.job_run_ms", ms(run))
			r.add("httpapi.non_detect_ms", ms(j.total-run))
		}
	}
}

// ratio is a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
