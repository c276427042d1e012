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
	win        window   // every SM's window before it has run a vertex: no backing
	labels     []uint32 // C
	prev       []uint32 // labels before the current iteration (Cross-Check)
	processed  []uint32 // vertex pruning flags: 1 = skip
	pickless   bool
	crosscheck bool
	noPrune    bool  // DisablePruning: skip the processed-flag fast path
	deltaN     int64 // label changes this iteration, folded from the tallies
	reverts    int64 // Cross-Check reverts this iteration, folded from the tallies

	// Per-SM state. Lanes on SM s write only tallies[s]: its hashtable
	// window, its candidate buffer, and its counters with plain adds;
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

// newRunState allocates the state of a run over g: the label array (a copy
// of labels, or the identity labeling when nil) and the pruning flags; the
// SMs' hashtable windows grow as they run. count turns on work and
// hashtable counting.
func newRunState(g *graph.CSR, opt Options, labels []uint32, count bool) *runState {
	n := g.NumVertices()
	st := &runState{
		g:         g,
		win:       window{kind: opt.ValueKind, probing: opt.Probing, coalesced: opt.Coalesced},
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

// smTally is one SM's single-writer state — its counters, its hashtable
// window and the thread kernel's candidates of the block it is running, by
// lane — padded so neighbouring SMs never write the same cache line. flips
// and reverts always count; edges, active and hash only when the run
// counts.
type smTally struct {
	flips   int64
	reverts int64
	edges   int64
	active  int64
	hash    hashtable.Tally
	win     window
	cand    []uint32
	_       [simt.CacheLine]byte
}

// GrowTallies implements simt.TallyKernel for every kernel embedding the
// run state: it makes room for sms per-SM tallies and windows (allocating
// only when the SM count grows), so each SM goroutine writes only its own.
func (st *runState) GrowTallies(sms int) {
	if sms > len(st.tallies) {
		grown := make([]smTally, sms)
		copy(grown, st.tallies)
		for s := len(st.tallies); s < sms; s++ {
			grown[s].win = st.win
		}
		st.tallies = grown
	}
}

// window returns SM sm's hashtable window, grown to fit a vertex of the
// given degree.
func (st *runState) window(sm, degree int) *window {
	w := &st.tallies[sm].win
	w.fit(degree)
	return w
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

	// Device memory: CSR (offsets, targets, weights), the paper's 2·arcs-slot
	// hashtable arena, labels, pruning flags, candidate buffer. The host
	// backs the arena with one window per SM (see window), but the
	// reservation is the paper's layout, so DeviceBytes, the OOM refusal and
	// Figure 5's float32/float64 ratio describe the hardware run. It is
	// reserved before the run state is allocated.
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
		tk:   &threadKernel{runState: st, list: low},
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
// i's edge scan. The flag store is sequentially consistent and precedes
// every label read of i's scan: it is the claimer's half of the argument
// that wake loses no wake-up.
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

// commit moves vertex i to candidate c on SM sm unless c is already its
// label or the Pick-Less rule forbids the move, and reports whether i
// moved. The caller then wakes i's neighbourhood; commit counts that scan.
// The label store is sequentially consistent and precedes every flag read
// of that wake: it is the mover's half of the argument that wake loses no
// wake-up.
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

// wake clears the pruning flag of every vertex in vs whose flag is set, so
// each runs again; it stores only where it reads 1. Every wake-up goes
// through it: a thread-kernel move, block-kernel phase 5, a ghost whose
// label the halo exchange changed, and a Cross-Check revert.
//
// Skipping a clear flag loses no wake-up. A mover stores its new label
// (commit) before it reads a neighbour's flag here, and a claimer stores
// its flag (claim) before it reads labels, all sequentially consistent. So
// a 0 that the mover reads was either there before the claim, and the
// claimer then reads the new label, or written after it by another wake,
// and the vertex runs again.
func wake(processed []uint32, vs []graph.Vertex) {
	for _, j := range vs {
		if simt.AtomicLoadUint32(processed, int(j)) == 1 {
			simt.AtomicStoreUint32(processed, int(j), 0)
		}
	}
}

// crossCheck applies the Cross-Check to vertex i, counted on SM sm: a
// change to community c is reverted unless the leader vertex c itself
// belongs to c. The launch's work ledger counts a revert as a label flip
// back; it does not touch the hashtable. It is the cross-check kernel's
// phase for one lane.
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
		wake(st.processed, []graph.Vertex{graph.Vertex(i)})
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
}

func (k *threadKernel) NumPhases() int { return 2 }

// KernelName implements simt.NamedKernel for profiling.
func (k *threadKernel) KernelName() string { return "thread-per-vertex" }

// BlockPhase implements simt.Kernel: phase p for every listed vertex of
// block t.Block, one lane each. Lanes past the end of the list have no
// vertex, so it returns BlockDim except on the last, partial block.
func (k *threadKernel) BlockPhase(p int, t *simt.Thread) int {
	lo := t.Block * t.BlockDim
	hi := min(lo+t.BlockDim, len(k.list))
	if lo >= hi {
		return 0
	}
	k.run(p, t, lo, hi)
	return hi - lo
}

// run is phase p for list entries [lo, hi) of block t.Block, in order, on
// SM t.SM. Phase 0 claims each entry, accumulates its neighbours' labels
// into its table and leaves the most weighted one (hashtable.EmptyKey when
// the entry is pruned or no label qualifies) at its lane of the SM's
// buffer. Phase 1 commits each candidate there and wakes the neighbourhood
// of every vertex that moved: the SM runs both phases of a block before its
// next one. Each phase is one loop that reads the run state once, so the
// step of a vertex is its claim, its row, its table and its move.
func (k *threadKernel) run(p int, t *simt.Thread, lo, hi int) {
	sm, base := t.SM, t.Block*t.BlockDim
	tl := &k.tallies[sm]
	if len(tl.cand) < t.BlockDim {
		tl.cand = make([]uint32, t.BlockDim)
	}
	list, cand := k.list[lo:hi], tl.cand[lo-base:hi-base]
	offsets, targets := k.g.Offsets, k.g.Targets
	if p == 0 {
		weights, labels, w, htl := k.g.Weights, k.labels, &tl.win, k.hashTally(sm)
		for x, i := range list {
			if !k.claim(i, sm) {
				cand[x] = hashtable.EmptyKey
				continue
			}
			a, b := offsets[i], offsets[i+1]
			w.fit(int(b - a))
			cand[x] = w.pick(i, targets[a:b], weights[a:b], labels, htl)
		}
		return
	}
	processed := k.processed
	for x, i := range list {
		if c := cand[x]; c != hashtable.EmptyKey && k.commit(i, c, sm) {
			wake(processed, targets[offsets[i]:offsets[i+1]])
		}
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
// The accumulate phase also keeps the first heaviest slot as the slots
// fill, as the thread kernel's Pick does. When the table has at most
// BlockDim slots, each lane of the max-reduce owns one slot, so the
// lane-order fold is a slot-order MaxKey; there, if that running max is
// exact (no negative, NaN or non-label add), it is the fold's answer and
// the max-reduce scans nothing. It still reports its lanes as active.
//
// BlockPhase runs a phase for the block's active lanes in lane order. A
// block runs all its lanes on one SM goroutine and its vertex's table
// window is disjoint from every other vertex's, so the table has a single
// writer and takes plain operations. Only lanes that can have an effect run
// — a vertex of degree 40 on a 256-lane block does its work in 40-odd
// lanes, not 256.
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

	best    uint32 // running best label over the lanes reduced so far
	bestW   float64
	bestOK  bool
	tracked bool // phase 2's running max set best: phase 3 folds nothing
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

// BlockPhase implements simt.Kernel: phase p for lanes 0..activeLanes-1 of
// block t.Block; every lane it skips has no effect.
func (k *blockKernel) BlockPhase(p int, t *simt.Thread) int {
	if t.Block >= len(k.list) || (p > 0 && t.Shared[0] == 1) {
		return 0 // pruned: every later phase is a no-op
	}
	n := activeLanes(p, t, &k.cur[t.SM])
	k.run(p, t, n)
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

// run is phase p for lanes [0, lanes) of block t.Block, in lane order, on
// SM t.SM. Lane L of a strided phase handles indices L, L+BlockDim,
// L+2·BlockDim, …, so the block as a whole visits a neighbourhood of degree
// > BlockDim in the order 0, B, 2B, …, 1, B+1, … — the order that decides
// slot insertion and float sums.
func (k *blockKernel) run(p int, t *simt.Thread, lanes int) {
	v, b := &k.cur[t.SM], t.BlockDim
	switch p {
	case 0: // lane 0 derives the block state and claims the vertex
		i := k.list[t.Block]
		v.i, v.deg = i, k.g.Degree(i)
		v.cap = int(hashtable.CapacityFor(v.deg))
		v.tb = k.window(t.SM, v.deg).tableFor(v.deg)
		v.ts, v.ws = k.g.Neighbors(i)
		v.tl = k.hashTally(t.SM)
		v.bestOK = false
		if !k.claim(i, t.SM) {
			t.Shared[0] = 1
		}
	case 1: // strided hashtable clear
		if lanes == v.cap { // one slot per lane
			v.tb.clear(0, 1)
			return
		}
		for lane := range lanes {
			v.tb.clear(lane, b)
		}
	case 2: // strided accumulation of neighbour labels, keeping the running max
		best, exact := v.tb.accumulateLanes(v.i, v.ts, v.ws, k.labels, 0, lanes, b, v.tl)
		// With one slot per lane, phase 3's lane-order fold is a slot-order
		// MaxKey, which an exact running max already is.
		if v.tracked = exact && v.cap <= b; v.tracked {
			v.best, v.bestOK = best, best != hashtable.EmptyKey
		}
	case 3: // max-reduce: fold each lane's strided maximum, in lane order
		if v.tracked { // phase 2 kept the answer
			return
		}
		if lanes == v.cap { // one slot per lane: lane order is slot order
			v.fold(0, 1)
			return
		}
		for lane := range lanes {
			v.fold(lane, b)
		}
	case 4: // lane 0 moves the vertex to the best label
		// Phase 5's strided wake-up scans the full neighbourhood; commit
		// counts it once rather than per lane.
		if v.bestOK && k.commit(v.i, v.best, t.SM) {
			t.Shared[1] = 1
		}
	case 5: // neighbour wake-up on move: the lanes' strided shares are the row
		if lanes > 0 {
			wake(k.processed, v.ts)
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

// BlockPhase implements simt.Kernel: it checks the vertices of block
// t.Block, one lane each, in lane order. Lanes past the last vertex have
// none, so it returns BlockDim except on the last, partial block.
func (k *crossCheckKernel) BlockPhase(_ int, t *simt.Thread) int {
	lo := t.Block * t.BlockDim
	hi := min(lo+t.BlockDim, len(k.labels))
	for i := lo; i < hi; i++ {
		k.crossCheck(i, t.SM)
	}
	return hi - lo
}
