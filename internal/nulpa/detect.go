package nulpa

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"time"

	"nulpa/internal/engine"
	"nulpa/internal/graph"
	"nulpa/internal/hashtable"
	"nulpa/internal/simt"
	"nulpa/internal/telemetry"
	"nulpa/internal/trace"
)

// Typed fault errors. Callers match with errors.Is.
var (
	// errFaulted reports that a device run exhausted its per-iteration
	// recovery budget (maxAttempts consecutive failed attempts) and could
	// not continue on the device. Detect answers it with the sequential
	// fallback, so it never reaches Detect's caller.
	errFaulted = errors.New("nulpa: simt backend faulted beyond recovery")
	// ErrCorruptLabels reports that the post-iteration validity check found
	// an out-of-range label — transient memory corruption the kernels
	// cannot have produced themselves.
	ErrCorruptLabels = errors.New("nulpa: label array failed validity check")
)

// Detect runs ν-LPA on g and returns the community membership of every
// vertex (Algorithm 1). The graph must be undirected (as produced by the
// graph package builders). It returns an error for invalid options, when the
// simulated device cannot hold the working set (the paper's out-of-memory
// condition on sk-2005), or when Options.Context ends the run early
// (engine.ErrCanceled / engine.ErrDeadline).
//
// A run that exhausts its recovery budget degrades gracefully: it is
// re-executed sequentially — the direct configuration at 1 SM on a fresh,
// fault-free device (the recovery ladder's last rung) — the downgrade is
// counted in nulpa_backend_fallbacks_total, and the Result carries Degraded
// and the faulted attempt's Rollbacks.
func Detect(g *graph.CSR, opt Options) (*Result, error) {
	if err := checkOptions(&opt); err != nil {
		return nil, err
	}
	res, err := detectSharded(g, opt)
	if errors.Is(err, errFaulted) {
		// The degradation is the run's most important observability moment:
		// it lands on the run's span as an event, in the log stream with the
		// trace id, and as a counter exemplar so a dashboard's fallback spike
		// links straight to the trace that tripped it.
		traceID := trace.IDFromContext(opt.Context)
		mFallbacks.IncExemplar(traceID)
		trace.FromContext(opt.Context).Event("fallback:direct", map[string]any{"error": err.Error()})
		slog.Warn("nulpa run faulted beyond recovery; degrading to the sequential direct configuration",
			"trace", traceID, "error", err)
		// newDeviceRun installs the injector on the caller's device, so the
		// rerun gets a fresh one.
		fopt := asDirect(opt)
		fopt.Workers = 1
		fopt.Device = nil
		fopt.Faults = nil
		fopt.ShardFaults = nil
		fopt.ShardParts = nil
		fres, ferr := detectSharded(g, fopt)
		if ferr != nil {
			return nil, ferr
		}
		fres.Degraded = true
		fres.Rollbacks += res.Rollbacks
		return fres, nil
	}
	if err != nil {
		return nil, err
	}
	return res, nil
}

func checkOptions(opt *Options) error {
	if opt.MaxIterations <= 0 {
		return fmt.Errorf("nulpa: MaxIterations must be positive, got %d", opt.MaxIterations)
	}
	if opt.Tolerance < 0 || opt.Tolerance >= 1 {
		return fmt.Errorf("nulpa: Tolerance must be in [0,1), got %g", opt.Tolerance)
	}
	if opt.PickLessEvery < 0 || opt.CrossCheckEvery < 0 {
		return fmt.Errorf("nulpa: mitigation periods must be non-negative")
	}
	if opt.SwitchDegree < 0 {
		return fmt.Errorf("nulpa: SwitchDegree must be non-negative, got %d", opt.SwitchDegree)
	}
	if opt.BlockDim <= 0 {
		opt.BlockDim = 256
	}
	if opt.Shards < 0 {
		return fmt.Errorf("nulpa: Shards must be non-negative, got %d", opt.Shards)
	}
	if opt.Shards > 1 && opt.CrossCheckEvery > 0 {
		// Cross-Check dereferences a label as a vertex id (leader lookup);
		// under sharding labels are global ids while kernel arrays are
		// shard-local, so the lookup has no local meaning. (On one device
		// labels and local ids coincide.) The BSP barrier already prevents
		// the inter-device swap cycles CC exists for (semi-synchronous
		// scheduling, Cordasco & Gargano).
		return fmt.Errorf("nulpa: Cross-Check is not supported on a sharded run")
	}
	return nil
}

// runState is the device-resident state shared by the kernels of one run.
type runState struct {
	g          *graph.CSR
	arena      anyArena
	labels     []uint32 // C
	prev       []uint32 // labels before the current iteration (Cross-Check)
	processed  []uint32 // vertex pruning flags: 1 = skip
	pickless   bool
	crosscheck bool
	noPrune    bool  // DisablePruning: skip the processed-flag fast path
	deltaN     int64 // label changes this iteration, folded from the tallies
	reverts    int64 // Cross-Check reverts this iteration, folded from the tallies

	// Counting. Lanes on SM s write only tallies[s], with plain adds;
	// FoldTallies sums them on the launching goroutine once the grid has
	// joined, so no lane ever contends on a shared counter. count gates the
	// work and hashtable counters: set if and only if the run reports to a
	// profiler.
	// iterEdges, iterActive and iterHash sum the iteration's folds for the
	// IterRecord, and listed is the number of vertices the run processes
	// when none is pruned, so Pruned = listed − iterActive.
	tallies    []smTally
	count      bool
	iterEdges  int64
	iterActive int64
	iterHash   hashtable.StatsSnapshot
	listed     int64
}

// newRunState allocates the state of a run over g: the hashtable arena, the
// label array (a copy of labels, or the identity labeling when nil) and the
// pruning flags. count turns on work and hashtable counting.
func newRunState(g *graph.CSR, opt Options, labels []uint32, count bool) *runState {
	n := g.NumVertices()
	st := &runState{
		g:         g,
		arena:     newAnyArena(opt, 2*g.NumArcs()),
		labels:    make([]uint32, n),
		processed: make([]uint32, n),
		noPrune:   opt.DisablePruning,
		count:     count,
	}
	if labels != nil {
		copy(st.labels, labels)
	} else {
		for i := range st.labels {
			st.labels[i] = uint32(i)
		}
	}
	if opt.CrossCheckEvery > 0 {
		st.prev = make([]uint32, n)
	}
	return st
}

// smTally is one SM's single-writer counters, padded so neighbouring SMs
// never write the same cache line. flips and reverts always count; edges,
// active and hash only when the run counts.
type smTally struct {
	flips   int64
	reverts int64
	edges   int64
	active  int64
	hash    hashtable.Tally
	_       [simt.CacheLine]byte
}

// GrowTallies implements simt.TallyKernel for every kernel embedding the
// run state: it makes room for sms per-SM tallies (allocating only when the
// SM count grows).
func (st *runState) GrowTallies(sms int) {
	if sms > len(st.tallies) {
		grown := make([]smTally, sms)
		copy(grown, st.tallies)
		st.tallies = grown
	}
}

// FoldTallies implements simt.TallyKernel: it moves every per-SM tally into
// the iteration's totals — deltaN, reverts, the work and hashtable sums —
// and the hashtable metrics, zeroes it, and returns the launch's work
// ledger, in which a Cross-Check revert counts as a label flip back.
// Callers must have joined every goroutine that counts.
func (st *runState) FoldTallies() telemetry.WorkCounts {
	var w telemetry.WorkCounts
	for i := range st.tallies {
		tl := &st.tallies[i]
		st.deltaN += tl.flips
		st.reverts += tl.reverts
		w.LabelFlips += tl.flips + tl.reverts
		w.EdgeVisits += tl.edges
		w.ActiveVertices += tl.active
		tl.flips, tl.reverts, tl.edges, tl.active = 0, 0, 0, 0
		d := tl.hash.Fold()
		st.iterHash = st.iterHash.Add(d)
		w.HashProbes += d.Probes
		w.HashCollisions += d.Collisions
	}
	st.iterEdges += w.EdgeVisits
	st.iterActive += w.ActiveVertices
	return w
}

// hashTally returns SM sm's hashtable tally, or nil when the run does not
// count.
func (st *runState) hashTally(sm int) *hashtable.Tally {
	if !st.count {
		return nil
	}
	return &st.tallies[sm].hash
}

// runView parameterizes a deviceRun for shard-local execution. The zero
// value is the whole-graph view of a single-device run.
type runView struct {
	// propagate limits the kernel lists to local ids strictly below it —
	// a shard's owned vertices. Ghost rows beyond it hold halo labels the
	// kernels read but never process. <= 0 means every vertex propagates.
	propagate int
	// labelBound is the exclusive upper bound of valid label values (the
	// global vertex count under sharding, where labels are global ids while
	// the local arrays are shorter). <= 0 means the local vertex count.
	labelBound int
	// labels, when non-nil, seeds the initial label array (a shard seeds
	// each row with its global vertex id). nil means the identity labeling.
	labels []uint32
}

// The recovery budget: an iteration gets maxAttempts consecutive attempts
// (the first execution plus re-executions after rollback) before the run
// gives up with errFaulted, and the retry after failed attempt a waits
// retryBackoff<<a.
const (
	maxAttempts  = 3
	retryBackoff = 100 * time.Microsecond
)

// deviceRun is one device's share of a ν-LPA run: the kernel state, the
// degree-partitioned launch lists, the per-iteration checkpoint, the
// recovery budget, and the shard's own counts. detectSharded owns one per
// shard (one in all on a single device) and drives them through
// engine.ShardLoop, so one shard's rollback/retry never restarts its peers.
type deviceRun struct {
	st         *runState
	dev        *simt.Device
	opt        Options
	stat       ShardStat
	tk         *threadKernel
	bk         *blockKernel
	low, high  []graph.Vertex
	n          int // local vertex count (the Cross-Check grid)
	labelBound int
	bytes      int64

	ckptLabels, ckptProcessed []uint32
}

// newDeviceRun allocates g's working set on dev and prepares the kernel
// state under the given view. On success the caller owns the device
// reservation and must free() it.
func newDeviceRun(g *graph.CSR, opt Options, dev *simt.Device, view runView) (*deviceRun, error) {
	if opt.Profiler != nil && dev.Prof == nil {
		dev.Prof = opt.Profiler
	}
	n := g.NumVertices()
	arcs := g.NumArcs()

	// Device memory: CSR (offsets, targets, weights), hashtable arena,
	// labels, pruning flags, candidate buffer. It is reserved before any of
	// it is allocated, so a graph that does not fit is refused before its
	// largest allocation, the 2·arcs-slot arena.
	bytes := int64(len(g.Offsets))*8 + arcs*4 + arcs*4 + arenaBytes(opt, 2*arcs) + int64(n)*4*3
	if opt.CrossCheckEvery > 0 {
		bytes += int64(n) * 4
	}
	if err := dev.Alloc(bytes); err != nil {
		return nil, fmt.Errorf("nulpa: graph with %d arcs does not fit on device: %w", arcs, err)
	}
	st := newRunState(g, opt, view.labels, dev.Prof != nil)

	limit := view.propagate
	if limit <= 0 {
		limit = n
	}
	low, high := partitionByDegree(g, opt.SwitchDegree, limit)
	st.listed = int64(len(low) + len(high))

	r := &deviceRun{
		st:   st,
		dev:  dev,
		opt:  opt,
		stat: ShardStat{DeviceBytes: bytes},
		tk:   &threadKernel{runState: st, list: low, cand: make([]uint32, len(low))},
		bk:   &blockKernel{runState: st, list: high},
		low:  low,
		high: high,
		n:    n,

		labelBound: view.labelBound,
		bytes:      bytes,
	}
	if r.labelBound <= 0 {
		r.labelBound = n
	}
	if opt.Faults != nil && dev.Faults == nil {
		dev.Faults = opt.Faults
	}
	// Checkpointing: on a device with a fault injector, the labels and
	// pruning flags are snapshotted before every iteration so a faulted
	// attempt can be rolled back and re-executed. The snapshot is two O(V)
	// copies per iteration — cheap next to the kernels' O(E) work. A device
	// without one cannot fault.
	if dev.Faults != nil {
		r.ckptLabels = make([]uint32, n)
		r.ckptProcessed = make([]uint32, n)
	}
	return r, nil
}

// free releases the run's device memory reservation.
func (r *deviceRun) free() { r.dev.Free(r.bytes) }

// iterate executes one ν-LPA iteration on the run's device, including the
// rollback/retry recovery ladder. It is the body detectSharded hands (per
// shard) to engine.ShardLoop.
func (r *deviceRun) iterate(ctx context.Context, iter int) engine.IterOutcome {
	st, opt, dev := r.st, r.opt, r.dev
	// ctx carries the iteration's trace span (shadowing the run context),
	// so kernel launches below nest under the iteration and recovery
	// activity lands on it as events.
	ispan := trace.FromContext(ctx)
	if r.ckptLabels != nil {
		copy(r.ckptLabels, st.labels)
		copy(r.ckptProcessed, st.processed)
	}

	// Recovery loop: attempt the iteration, and on a launch fault or a
	// corrupted label array roll back to the checkpoint and retry with
	// exponential backoff, up to maxAttempts consecutive attempts. rec
	// collects the device's own record fields: kernel times and retries.
	var rec IterStat
	for attempt := 0; ; attempt++ {
		st.beginIter(&opt, iter)
		err := func() error {
			if len(r.low) > 0 {
				t0 := time.Now()
				if err := dev.LaunchKernel1D(ctx, len(r.low), opt.BlockDim, r.tk); err != nil {
					return err
				}
				rec.ThreadKernel = time.Since(t0)
			}
			if len(r.high) > 0 {
				t0 := time.Now()
				if err := dev.LaunchKernel(ctx, len(r.high), opt.BlockDim, r.bk); err != nil {
					return err
				}
				rec.BlockKernel = time.Since(t0)
			}
			if st.crosscheck {
				ck := &crossCheckKernel{runState: st}
				t0 := time.Now()
				if err := dev.LaunchKernel1D(ctx, r.n, opt.BlockDim, ck); err != nil {
					return err
				}
				rec.CrossKernel = time.Since(t0)
			}
			return nil
		}()
		if err == nil {
			// Transient-memory fault injection happens after the kernels
			// so a flip can hit any position the iteration wrote.
			opt.Faults.CorruptLabels(st.labels)
			if r.ckptLabels != nil && !labelsValid(st.labels, r.labelBound) {
				mCorruptions.Inc()
				ispan.Event("fault:corrupt-labels", map[string]any{"attempt": int64(attempt)})
				err = ErrCorruptLabels
			}
		}
		if err == nil {
			break
		}
		// Cancellation and deadline expiry are not faults; surface them
		// as the run's typed interrupt without burning retries.
		if cerr := ctx.Err(); cerr != nil {
			return engine.IterOutcome{Err: engine.CtxErr(cerr)}
		}
		copy(st.labels, r.ckptLabels)
		copy(st.processed, r.ckptProcessed)
		r.stat.Rollbacks++
		mRollbacks.Inc()
		ispan.Event("rollback", map[string]any{"attempt": int64(attempt), "error": err.Error()})
		if attempt+1 >= maxAttempts {
			return engine.IterOutcome{Err: fmt.Errorf("%w: iteration %d failed %d consecutive attempts, last: %v",
				errFaulted, iter, attempt+1, err)}
		}
		rec.Retries++
		r.stat.Retries++
		mRetries.Inc()
		ispan.Event("retry", map[string]any{"attempt": int64(attempt + 1)})
		if !sleepCtx(ctx, retryBackoff<<attempt) {
			return engine.IterOutcome{Err: engine.CtxErr(ctx.Err())}
		}
	}
	out := st.endIter(&opt, rec)
	r.stat.Moves += out.Record.DeltaN
	return out
}

// beginIter starts an attempt at iteration iter: it sets the iteration's
// Pick-Less and Cross-Check flags, zeroes the iteration's counters and keeps
// the labels Cross-Check compares against.
func (st *runState) beginIter(opt *Options, iter int) {
	st.pickless = opt.PickLessEvery > 0 && iter%opt.PickLessEvery == 0
	st.crosscheck = opt.CrossCheckEvery > 0 && iter%opt.CrossCheckEvery == 0
	st.deltaN, st.reverts = 0, 0
	st.iterEdges, st.iterActive = 0, 0
	st.iterHash = hashtable.StatsSnapshot{}
	if st.crosscheck {
		copy(st.prev, st.labels)
	}
}

// endIter closes an iteration whose counters have been folded and returns
// its outcome. rec carries the device's own record fields (kernel times,
// retries); endIter fills in the rest.
func (st *runState) endIter(opt *Options, rec IterStat) engine.IterOutcome {
	gross, reverts := st.deltaN, st.reverts
	delta := gross - reverts
	rec.PickLess = st.pickless
	rec.CrossCheck = st.crosscheck
	rec.Moves = gross
	rec.Reverts = reverts
	rec.DeltaN = delta
	if st.count {
		rec.EdgeVisits = st.iterEdges
		rec.ActiveVertices = st.iterActive
		rec.Pruned = st.listed - st.iterActive
		rec.HashAccumulates = st.iterHash.Accumulates
		rec.HashProbes = st.iterHash.Probes
		rec.HashCollisions = st.iterHash.Collisions
		rec.HashFallbacks = st.iterHash.Fallbacks
		rec.HashFailures = st.iterHash.Failures
	}
	return engine.IterOutcome{
		Record: rec,
		// Pick-Less iterations intentionally move few vertices and must
		// not count as convergence.
		ForceContinue: st.pickless,
		// A fixed point under permanent Pick-Less is also converged.
		Stop: delta == 0 && opt.PickLessEvery == 1,
		// Labels feed the quality plane on single-device runs; sharded runs
		// discard the per-shard view and gather a global one instead.
		Labels: st.labels,
	}
}

// claim is the pruning test for vertex i, counted on SM sm: it reports false
// when i's processed flag says skip, and otherwise sets the flag and counts
// i's edge scan.
func (st *runState) claim(i graph.Vertex, sm int) bool {
	if !st.noPrune {
		if simt.AtomicLoadUint32(st.processed, int(i)) == 1 {
			return false
		}
		simt.AtomicStoreUint32(st.processed, int(i), 1)
	}
	if st.count {
		tl := &st.tallies[sm]
		tl.active++
		tl.edges += int64(st.g.Degree(i))
	}
	return true
}

// pick is the candidate choice for vertex i (degree >= 1) on SM sm: unless
// pruning skips i, it claims the vertex, accumulates its neighbours' labels
// into i's hashtable and returns the most weighted one. It returns
// hashtable.EmptyKey when i is skipped or no label qualifies. It is the
// thread kernel's phase 0.
func (st *runState) pick(i graph.Vertex, sm int) uint32 {
	if !st.claim(i, sm) {
		return hashtable.EmptyKey
	}
	ts, ws := st.g.Neighbors(i)
	return st.arena.pick(i, st.g.Offset(i), ts, ws, st.labels, st.hashTally(sm))
}

// commit moves vertex i to candidate c on SM sm unless c is already its
// label or the Pick-Less rule forbids the move, and reports whether i
// moved. The caller then wakes i's neighbourhood; commit counts that scan.
func (st *runState) commit(i graph.Vertex, c uint32, sm int) bool {
	cur := simt.AtomicLoadUint32(st.labels, int(i))
	if c == cur || (st.pickless && c > cur) {
		return false
	}
	simt.AtomicStoreUint32(st.labels, int(i), c)
	tl := &st.tallies[sm]
	tl.flips++
	if st.count {
		tl.edges += int64(st.g.Degree(i)) // neighbour wake-up scan
	}
	return true
}

// move commits pick's candidate c for vertex i and wakes i's neighbourhood.
// It is the thread kernel's phase 1.
func (st *runState) move(i graph.Vertex, c uint32, sm int) {
	if c == hashtable.EmptyKey || !st.commit(i, c, sm) {
		return
	}
	ts, _ := st.g.Neighbors(i)
	for _, j := range ts {
		simt.AtomicStoreUint32(st.processed, int(j), 0)
	}
}

// crossCheck applies the Cross-Check to vertex i, counted on SM sm: a
// change to community c is reverted unless the leader vertex c itself
// belongs to c. The launch's work ledger counts a revert as a label flip
// back; it does not touch the hashtable. It is the cross-check kernel's phase.
func (st *runState) crossCheck(i, sm int) {
	cur := simt.AtomicLoadUint32(st.labels, i)
	if cur == st.prev[i] {
		return
	}
	leader := simt.AtomicLoadUint32(st.labels, int(cur))
	if leader != cur {
		simt.AtomicStoreUint32(st.labels, i, st.prev[i])
		st.tallies[sm].reverts++
		// The vertex changed again; let its neighbourhood reconsider.
		simt.AtomicStoreUint32(st.processed, i, 0)
	}
}

// labelsValid is the partition-validity check the recovery path runs after
// every checkpointed iteration: a label is a vertex id, so any value >= n is
// corruption (a bit-flip that lands inside [0, n) is indistinguishable from
// a community move and is left to converge away).
func labelsValid(labels []uint32, n int) bool {
	for _, c := range labels {
		if int(c) >= n {
			return false
		}
	}
	return true
}

// sleepCtx sleeps for d or until ctx is done; it reports false on
// cancellation.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return ctx.Err() == nil
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// partitionByDegree splits vertices into the thread-per-vertex list (degree
// in [1, switchDegree)) and the block-per-vertex list (degree >=
// switchDegree). Isolated vertices are excluded — they keep their own label
// forever. A switchDegree of 0 sends every vertex to the block kernel. Only
// vertices below limit are listed: a shard propagates its owned rows while
// ghost rows are read-only halo state.
func partitionByDegree(g *graph.CSR, switchDegree, limit int) (low, high []graph.Vertex) {
	n := limit
	if n > g.NumVertices() {
		n = g.NumVertices()
	}
	// Count first so each list is allocated once at its exact length.
	nLow, nHigh := 0, 0
	for i := 0; i < n; i++ {
		switch d := g.Degree(graph.Vertex(i)); {
		case d == 0:
		case d < switchDegree:
			nLow++
		default:
			nHigh++
		}
	}
	low = make([]graph.Vertex, 0, nLow)
	high = make([]graph.Vertex, 0, nHigh)
	for i := 0; i < n; i++ {
		switch d := g.Degree(graph.Vertex(i)); {
		case d == 0:
		case d < switchDegree:
			low = append(low, graph.Vertex(i))
		default:
			high = append(high, graph.Vertex(i))
		}
	}
	return low, high
}

// threadKernel is the thread-per-vertex kernel for low-degree vertices. Two
// lockstep phases: phase 0 reads neighbour labels and picks the candidate,
// phase 1 writes the move. All lanes of a block therefore read before any
// lane writes — the exact interleaving that produces community swaps on
// lockstep hardware.
type threadKernel struct {
	*runState
	list []graph.Vertex
	cand []uint32
}

func (k *threadKernel) NumPhases() int { return 2 }

// KernelName implements simt.NamedKernel for profiling.
func (k *threadKernel) KernelName() string { return "thread-per-vertex" }

func (k *threadKernel) Phase(p int, t *simt.Thread) {
	if gid := t.GlobalID(); gid < len(k.list) {
		k.run(p, gid, gid+1, t.SM)
	}
}

// BlockPhase implements simt.BlockPhaseKernel: phase p for every listed
// vertex of block t.Block. Lanes past the end of the list have no vertex,
// so it returns BlockDim except on the last, partial block.
func (k *threadKernel) BlockPhase(p int, t *simt.Thread) int {
	lo := t.Block * t.BlockDim
	hi := min(lo+t.BlockDim, len(k.list))
	if lo >= hi {
		return 0
	}
	k.run(p, lo, hi, t.SM)
	return hi - lo
}

// run is phase p for list entries [lo, hi), in order, on SM sm.
func (k *threadKernel) run(p, lo, hi, sm int) {
	list, cand := k.list[lo:hi], k.cand[lo:hi]
	if p == 0 {
		for x, i := range list {
			cand[x] = k.pick(i, sm)
		}
		return
	}
	for x, i := range list {
		k.move(i, cand[x], sm)
	}
}

// blockKernel is the block-per-vertex kernel for high-degree vertices. One
// thread block cooperates on one vertex: strided clear, strided
// accumulation into the vertex's hashtable, a max-reduce (each lane's
// strided share of the table folds into a running best, in lane order —
// the hashtableMaxKey "in parallel" of Algorithm 1), then the move. Shared
// memory layout: word 0 = skip flag, word 1 = moved flag. The running best
// lives in the per-SM block state cur, which lane 0 of phase 0 sets.
//
// Each phase has one body, run, over a range of lanes in lane order. Phase
// (simt.Kernel) drives it for the one lane t.Lane on the atomic table path:
// the GPU-faithful reference, in which any lane could race any other.
// BlockPhase (simt.BlockPhaseKernel) drives it for a whole block's active
// lanes on the plain path: a block runs all its lanes on one SM goroutine
// and its vertex's table window is disjoint from every other vertex's, so
// the table has a single writer and plain operations make the same
// decisions, probes and sums as the atomic ones. Only lanes that can have
// an effect run — a vertex of degree 40 on a 256-lane block does its work
// in 40-odd lanes, not 256.
type blockKernel struct {
	*runState
	list []graph.Vertex
	cur  []blockVertex // per SM: the block it is running
}

// blockVertex is what every lane of a block derives from its vertex, plus
// the block's running max-reduce result.
type blockVertex struct {
	i   graph.Vertex
	deg int
	cap int // hashtable capacity: slots [0, cap)
	tb  anyTable
	ts  []graph.Vertex
	ws  []float32
	tl  *hashtable.Tally

	best   uint32 // running best label over the lanes reduced so far
	bestW  float64
	bestOK bool
}

func (k *blockKernel) NumPhases() int     { return 6 }
func (k *blockKernel) SharedUint64s() int { return 2 }

// KernelName implements simt.NamedKernel for profiling.
func (k *blockKernel) KernelName() string { return "block-per-vertex" }

// GrowTallies implements simt.TallyKernel, adding the per-SM block state to
// the run state's tallies.
func (k *blockKernel) GrowTallies(sms int) {
	k.runState.GrowTallies(sms)
	if sms > len(k.cur) {
		k.cur = make([]blockVertex, sms)
	}
}

// Phase implements simt.Kernel: phase p for the one lane t, on the atomic
// table path.
func (k *blockKernel) Phase(p int, t *simt.Thread) {
	if t.Block >= len(k.list) || (p > 0 && t.Shared[0] == 1) {
		return
	}
	if t.Lane < activeLanes(p, t, &k.cur[t.SM]) {
		k.run(p, t, t.Lane, t.Lane+1, true)
	}
}

// BlockPhase implements simt.BlockPhaseKernel: phase p for lanes
// 0..activeLanes-1 of block t.Block, on the plain table path. Every lane it
// skips would have returned from Phase without an effect, so the result
// equals Phase over all t.BlockDim lanes.
func (k *blockKernel) BlockPhase(p int, t *simt.Thread) int {
	if t.Block >= len(k.list) || (p > 0 && t.Shared[0] == 1) {
		return 0 // pruned: every later phase is a no-op
	}
	n := activeLanes(p, t, &k.cur[t.SM])
	k.run(p, t, 0, n, false)
	return n
}

// activeLanes is how many leading lanes of phase p can have an effect on
// vertex v; every lane at or beyond it is idle.
func activeLanes(p int, t *simt.Thread, v *blockVertex) int {
	switch p {
	case 0, 4: // lane 0 only
		return 1
	case 1, 3: // one lane per slot
		return min(v.cap, t.BlockDim)
	case 5:
		if t.Shared[1] == 0 {
			return 0
		}
	}
	return min(v.deg, t.BlockDim) // phases 2 and 5: one lane per neighbour
}

// run is phase p for lanes [lo, hi) of block t.Block, in lane order, on SM
// t.SM; shared selects the atomic table path. Lane L of a strided phase
// handles indices L, L+BlockDim, L+2·BlockDim, …, so the block as a whole
// visits a neighbourhood of degree > BlockDim in the order 0, B, 2B, …, 1,
// B+1, … — the order that decides slot insertion and float sums.
func (k *blockKernel) run(p int, t *simt.Thread, lo, hi int, shared bool) {
	v, b := &k.cur[t.SM], t.BlockDim
	switch p {
	case 0: // lane 0 derives the block state and claims the vertex
		i := k.list[t.Block]
		v.i, v.deg = i, k.g.Degree(i)
		v.cap = int(hashtable.CapacityFor(v.deg))
		v.tb = k.arena.tableFor(k.g.Offset(i), v.deg)
		v.ts, v.ws = k.g.Neighbors(i)
		v.tl = k.hashTally(t.SM)
		v.bestOK = false
		if !k.claim(i, t.SM) {
			t.Shared[0] = 1
		}
	case 1: // strided hashtable clear
		if hi == v.cap { // one slot per lane: lanes [lo, hi) are slots [lo, hi)
			v.tb.clear(lo, 1)
			return
		}
		for lane := lo; lane < hi; lane++ {
			v.tb.clear(lane, b)
		}
	case 2: // strided accumulation of neighbour labels
		v.tb.accumulateLanes(v.i, v.ts, v.ws, k.labels, lo, hi, b, shared, v.tl)
	case 3: // max-reduce: fold each lane's strided maximum, in lane order
		if hi == v.cap { // one slot per lane: lane order is slot order
			v.fold(lo, 1)
			return
		}
		for lane := lo; lane < hi; lane++ {
			v.fold(lane, b)
		}
	case 4: // lane 0 moves the vertex to the best label
		// Phase 5's strided wake-up scans the full neighbourhood; commit
		// counts it once rather than per lane.
		if v.bestOK && k.commit(v.i, v.best, t.SM) {
			t.Shared[1] = 1
		}
	case 5: // strided neighbour wake-up on move
		for lane := lo; lane < hi; lane++ {
			for idx := lane; idx < len(v.ts); idx += b {
				simt.AtomicStoreUint32(k.processed, int(v.ts[idx]), 0)
			}
		}
	}
}

// fold folds the strided maximum of slots lane, lane+stride, … into the
// block's running best; a later maximum wins only if strictly heavier.
func (v *blockVertex) fold(lane, stride int) {
	if c, w, ok := v.tb.BestStrided(lane, stride); ok && (!v.bestOK || w > v.bestW) {
		v.best, v.bestW, v.bestOK = c, w, true
	}
}

// crossCheckKernel implements the Cross-Check (CC) method: a community
// change of vertex i to c* is "good" only if the leader vertex c* itself
// belongs to community c*; otherwise i reverts to its previous label. The
// check and revert are fused in a single phase, so within a block the first
// of a swapped pair reverts and the partner then observes a good change —
// the asymmetry that breaks the swap cycle (§4.1). Across blocks the same
// asymmetry arises from asynchronous SM execution.
type crossCheckKernel struct {
	*runState
}

func (k *crossCheckKernel) NumPhases() int { return 1 }

// KernelName implements simt.NamedKernel for profiling.
func (k *crossCheckKernel) KernelName() string { return "cross-check" }

// Phase checks one vertex.
func (k *crossCheckKernel) Phase(_ int, t *simt.Thread) {
	if i := t.GlobalID(); i < len(k.labels) {
		k.crossCheck(i, t.SM)
	}
}
