package nulpa

import (
	"context"
	"fmt"
	"runtime"
	"strconv"
	"sync"

	"nulpa/internal/engine"
	"nulpa/internal/graph"
	"nulpa/internal/partition"
	"nulpa/internal/shard"
	"nulpa/internal/simt"
)

// detectSharded runs ν-LPA on simulated GPUs: Options.Shards devices in BSP
// supersteps (the multi-GPU decomposition of Forster's parallel Louvain,
// with Cordasco & Gargano's semi-synchronous barrier):
//
//  1. internal/partition splits the CSR into K balanced shards with its
//     size-constrained LPA partitioner (or Options.ShardParts supplies one).
//  2. internal/shard builds each shard's local CSR — owned rows plus ghost
//     halo rows — and the global↔local remap.
//  3. One deviceRun per shard, set up concurrently with its peers, executes
//     the unchanged thread-per-vertex / block-per-vertex kernels over its
//     owned rows, again concurrently with its peers, under engine.ShardLoop.
//  4. At each superstep barrier, only ghost labels whose owner copy changed
//     are exchanged, and the receiving shard's affected vertices are woken
//     (pruning flags cleared).
//
// Labels are global vertex ids throughout, so communities merge across
// shard boundaries and Pick-Less ordering stays globally consistent.
// Per-shard checkpoints mean a fault on one shard rolls back and retries
// that shard alone; peers proceed to the barrier and wait.
//
// The paper's single device is K=1: one deviceRun over g itself, on
// Options.Device or a fresh device, with no partition, no shard CSR and no
// barrier. Its label array is the result.
func detectSharded(g *graph.CSR, opt Options) (*Result, error) {
	ctx := opt.Context
	if ctx == nil {
		ctx = context.Background()
	}
	n := g.NumVertices()
	if n == 0 {
		return &Result{Labels: []uint32{}, Converged: true}, nil
	}
	k := min(max(opt.Shards, 1), n)
	var plan *shard.Plan
	if k > 1 {
		var err error
		if plan, err = planShards(ctx, g, opt, k); err != nil {
			return nil, err
		}
	}

	// One device per shard. Workers bounds each device's SM count (1 SM per
	// device keeps a run deterministic, matching the conformance contract);
	// unset, the host parallelism is divided across the devices.
	sms := opt.Workers
	if sms <= 0 {
		sms = max(runtime.GOMAXPROCS(0)/k, 1)
	}

	// setup creates shard s's device run. Shards are independent until the
	// first barrier, so with K > 1 the K set-ups (each reserving its
	// shard's device memory and allocating its label arrays) run
	// concurrently, one goroutine per device as in the supersteps; the
	// single device sets up inline.
	setup := func(s int) (*deviceRun, error) {
		sopt := opt
		if opt.ShardFaults != nil {
			sopt.Faults = nil
			if s < len(opt.ShardFaults) {
				sopt.Faults = opt.ShardFaults[s]
			}
		}
		sg, dev, view := g, opt.Device, runView{}
		stat := ShardStat{Shard: s, Owned: n}
		if plan != nil {
			sh := plan.Shards[s]
			sg, dev = sh.Local, nil
			view = runView{propagate: sh.Owned, labelBound: n, labels: sh.GlobalID}
			stat = ShardStat{Shard: s, Owned: sh.Owned, Ghosts: len(sh.Ghosts), CutArcs: sh.CutArcs}
		}
		if dev == nil {
			dev = simt.NewDevice(sms)
			dev.ID = s
		}
		run, err := newDeviceRun(sg, sopt, dev, view)
		if err != nil {
			return nil, err
		}
		stat.DeviceBytes = run.bytes
		run.stat = stat
		return run, nil
	}
	runs := make([]*deviceRun, k)
	defer func() {
		for _, r := range runs {
			if r != nil {
				r.free()
			}
		}
	}()
	errs := make([]error, k)
	if k == 1 {
		runs[0], errs[0] = setup(0)
	} else {
		var wg sync.WaitGroup
		for s := range runs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				runs[s], errs[s] = setup(s)
			}()
		}
		wg.Wait()
	}
	// The first failing shard's error is the run's; the deferred free
	// releases every reservation the other shards made.
	res := &Result{}
	for s, r := range runs {
		if errs[s] != nil {
			return nil, errs[s]
		}
		res.DeviceBytes += r.bytes
	}

	labelArrs := make([][]uint32, k)
	for s, r := range runs {
		labelArrs[s] = r.st.labels
	}

	// Reused gather buffer for the quality plane's per-superstep global view
	// (allocated lazily: only runs with a quality observer ever gather).
	var qlabels []uint32

	// With one shard, ShardLoop runs the body inline and never calls the
	// gather or exchange hooks, which need a plan.
	lr := engine.ShardLoop(engine.ShardLoopConfig{
		LoopConfig: engine.LoopConfig{
			MaxIterations: opt.MaxIterations,
			Threshold:     opt.Tolerance * float64(n),
			Ctx:           ctx,
			Profiler:      opt.Profiler,
		},
		Shards: k,
		GatherLabels: func() []uint32 {
			if qlabels == nil {
				qlabels = make([]uint32, n)
			}
			return plan.GatherInto(qlabels, labelArrs)
		},
	}, func(ctx context.Context, iter, s int) engine.IterOutcome {
		return runs[s].iterate(ctx, iter)
	}, func(_ context.Context, _ int) (int64, error) {
		// The exchange runs on one goroutine between barriers, shards in
		// ascending order — deterministic regardless of how the superstep's
		// device goroutines were scheduled.
		st := plan.Exchange(labelArrs, func(s int, ghost graph.Vertex) {
			wakeGhostNeighbors(runs[s].st, ghost)
		})
		for s, c := range st.PerShard {
			if c > 0 {
				runs[s].stat.HaloLabelsIn += c
				mShardHaloLabels.With(strconv.Itoa(s)).Add(c)
			}
		}
		return st.Updated, nil
	})
	for _, r := range runs {
		res.Rollbacks += r.stat.Rollbacks
	}
	if lr.Err != nil {
		// res carries the rollbacks made before the failure, which Detect
		// keeps on a degraded run's result.
		return res, lr.Err
	}

	res.Iterations = lr.Iterations
	res.Converged = lr.Converged
	res.Trace = lr.Trace
	res.Duration = lr.Duration
	res.ShardStats = make([]ShardStat, k)
	for s, r := range runs {
		res.ShardStats[s] = r.stat
	}
	if plan == nil {
		res.Labels = labelArrs[0]
		return res, nil
	}
	res.CutArcs = plan.CutArcs
	res.Labels = plan.Gather(labelArrs)
	// Per-shard community census: distinct labels among each shard's owned
	// rows — the partition-quality attribution that makes a shard whose halo
	// staleness fragments communities stand out. Labels are global ids
	// below n, so one mark slice stamped with s+1 serves every shard.
	mark := make([]uint32, n)
	for s, sh := range plan.Shards {
		stamp, count := uint32(s+1), 0
		for _, c := range labelArrs[s][:sh.Owned] {
			if mark[c] != stamp {
				mark[c] = stamp
				count++
			}
		}
		res.ShardStats[s].Communities = count
		mShardMoves.With(strconv.Itoa(s)).Add(res.ShardStats[s].Moves)
	}
	return res, nil
}

// planShards splits g into k shards: Options.ShardParts when set, the
// internal partitioner otherwise.
func planShards(ctx context.Context, g *graph.CSR, opt Options, k int) (*shard.Plan, error) {
	parts := opt.ShardParts
	if parts == nil {
		popt := partition.DefaultOptions(k)
		// Every cut arc becomes halo traffic and boundary re-processing, so
		// trade a little balance slack and a few multi-start refinements for
		// a lower cut — on the Table 1 stand-ins this keeps the sharded
		// backend's edge visits within ~1.1× of the single-device run.
		popt.Imbalance = 0.1
		popt.Restarts = 4
		popt.Workers = opt.Workers
		popt.Context = ctx
		pres, err := partition.Partition(g, popt)
		if err != nil {
			return nil, err
		}
		parts = pres.Parts
	} else if len(parts) != g.NumVertices() {
		return nil, fmt.Errorf("nulpa: ShardParts length %d, graph has %d vertices", len(parts), g.NumVertices())
	}
	plan, err := shard.Build(g, parts, k)
	if err != nil {
		return nil, fmt.Errorf("nulpa: %w", err)
	}
	return plan, nil
}

// wakeGhostNeighbors clears the pruning flags of every owned vertex adjacent
// to a ghost whose label just changed: their best-label decision may have
// shifted, so they must be reprocessed next superstep. Ghost rows hold
// exactly the reverse arcs into owned rows, so the scan is minimal.
func wakeGhostNeighbors(st *runState, ghost graph.Vertex) {
	ts, _ := st.g.Neighbors(ghost)
	wake(st.processed, ts)
}
