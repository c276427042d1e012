// Package telemetry is the observability layer for the ν-LPA system: a
// near-zero-overhead-when-disabled recorder for kernel launches (one
// Launch record per launch, with one busy span per SM) and per-iteration
// algorithm records (ΔN decay, Pick-Less rounds, Cross-Check reverts,
// pruning, hashtable probe deltas, partition quality), with two exporters —
// a human-readable summary table and a Chrome trace-event JSON timeline
// loadable in chrome://tracing.
//
// Among the repository's packages it imports only trace (the spans the
// Chrome export draws every interval from) and quality (whose
// per-iteration snapshot is the QualityRecord), both leaf layers, so every
// detector and device can depend on it: a simt.Device builds each launch's
// record and hands it to its *Recorder in one RecordLaunch call, and every
// algorithm package embeds IterRecord in its result trace, so baselines and
// ν-LPA report through the same record type and a table rendered from a run
// can never disagree with its exported trace.
package telemetry

import (
	"sync"
	"time"
)

// IterRecord is one iteration's telemetry for any label-propagation run —
// the one per-iteration record every consumer (result trace, profiler,
// health monitor, spans, exporters) reads. ν-LPA populates every field;
// baselines populate the subset that exists in their execution model (FLPA
// maps queue generations to iterations) and leave the rest zero.
//
// The work and hashtable fields (Pruned, EdgeVisits, ActiveVertices, Hash*)
// are counted under one rule on every ν-LPA backend: if and only if the run
// reports to a profiler. Unprofiled runs leave them zero.
type IterRecord struct {
	// Iter is the zero-based iteration index.
	Iter int `json:"iter"`
	// PickLess reports whether the Pick-Less restriction was active.
	PickLess bool `json:"pickLess,omitempty"`
	// CrossCheck reports whether a Cross-Check pass ran.
	CrossCheck bool `json:"crossCheck,omitempty"`
	// Moves is the gross label-change count (before reverts).
	Moves int64 `json:"moves"`
	// Reverts is the Cross-Check revert count.
	Reverts int64 `json:"reverts,omitempty"`
	// DeltaN is the net changed-vertex count (Moves − Reverts), the
	// quantity the tolerance test and the paper's convergence figures use.
	DeltaN int64 `json:"deltaN"`
	// Pruned is the number of listed (non-isolated, owned) vertices the
	// iteration skipped because their pruning flag was set when it reached
	// them: the listed count minus ActiveVertices.
	Pruned int64 `json:"pruned,omitempty"`
	// Retries is the number of times fault recovery re-executed this
	// iteration after a rollback (simt backend with checkpointing).
	Retries int64 `json:"retries,omitempty"`
	// Duration is the iteration's wall time.
	Duration time.Duration `json:"duration"`
	// Threshold is the convergence loop's ΔN bound for the run (τ·|V| on
	// ν-LPA), stamped by the loop; zero when the loop has no ΔN test.
	Threshold float64 `json:"threshold,omitempty"`
	// ThreadKernel, BlockKernel and CrossKernel are the wall times of the
	// thread-per-vertex, block-per-vertex and Cross-Check kernel launches
	// (SIMT backend only).
	ThreadKernel time.Duration `json:"threadKernel,omitempty"`
	BlockKernel  time.Duration `json:"blockKernel,omitempty"`
	CrossKernel  time.Duration `json:"crossKernel,omitempty"`
	// Hashtable probe accounting deltas for this iteration.
	HashAccumulates int64 `json:"hashAccumulates,omitempty"`
	HashProbes      int64 `json:"hashProbes,omitempty"`
	HashCollisions  int64 `json:"hashCollisions,omitempty"`
	HashFallbacks   int64 `json:"hashFallbacks,omitempty"`
	HashFailures    int64 `json:"hashFailures,omitempty"`
	// EdgeVisits is the number of edge (arc) inspections performed this
	// iteration: neighbour scans during label accumulation plus
	// neighbourhood wake-up scans after moves. The primary work counter —
	// the quantity ROADMAP's frontier arc must shrink by an order of
	// magnitude.
	EdgeVisits int64 `json:"edgeVisits,omitempty"`
	// ActiveVertices is the number of vertices actually processed this
	// iteration (not pruned/skipped) — the frontier occupancy numerator.
	ActiveVertices int64 `json:"activeVertices,omitempty"`
	// Quality is the iteration's partition-quality record, attached by the
	// convergence loop when the run has quality accounting enabled; nil
	// otherwise.
	Quality *QualityRecord `json:"quality,omitempty"`
}

// Add returns r with o's counters added and o's phase flags ORed in: one
// superstep's record across its shards, or, summed over a trace, a run's
// totals. Iter, Duration, Threshold and Quality stay r's, since they
// describe one iteration of one loop rather than a count.
func (r IterRecord) Add(o IterRecord) IterRecord {
	r.PickLess = r.PickLess || o.PickLess
	r.CrossCheck = r.CrossCheck || o.CrossCheck
	r.Moves += o.Moves
	r.Reverts += o.Reverts
	r.DeltaN += o.DeltaN
	r.Pruned += o.Pruned
	r.Retries += o.Retries
	r.ThreadKernel += o.ThreadKernel
	r.BlockKernel += o.BlockKernel
	r.CrossKernel += o.CrossKernel
	r.HashAccumulates += o.HashAccumulates
	r.HashProbes += o.HashProbes
	r.HashCollisions += o.HashCollisions
	r.HashFallbacks += o.HashFallbacks
	r.HashFailures += o.HashFailures
	r.EdgeVisits += o.EdgeVisits
	r.ActiveVertices += o.ActiveVertices
	return r
}

// Sum is a run's totals: the counters of its trace added up.
func Sum(recs []IterRecord) IterRecord {
	var t IterRecord
	for _, r := range recs {
		t = t.Add(r)
	}
	return t
}

// SMSpan is one streaming multiprocessor's busy span within a kernel launch.
type SMSpan struct {
	SM         int
	Start, End time.Time
	Blocks     int64
	Phases     int64
	Lanes      int64
}

// Busy is the span's wall time.
func (s SMSpan) Busy() time.Duration { return s.End.Sub(s.Start) }

// Launch is one recorded kernel launch: overall wall span plus one SMSpan
// per SM goroutine that executed blocks of the grid.
type Launch struct {
	// ID is the launch's ordinal among the recorder's launches, set by
	// RecordLaunch.
	ID int
	// Device is the launching device's ID; each device has its own SM rows
	// in the Chrome export.
	Device     int
	Kernel     string
	Grid       int
	BlockDim   int
	Start, End time.Time
	SMs        []SMSpan
	// Work is the launch's algorithmic work ledger, folded by kernels
	// implementing the simt TallyKernel extension; zero otherwise.
	Work WorkCounts
}

// IterSink observes a run's iteration stream as it is recorded. A sink
// attached via SetSink receives every IterRecord (quality record included)
// the moment RecordIteration stores it, plus per-superstep shard timing from
// sharded runs — the seam the convergence health monitor (internal/health)
// hangs off without the detectors knowing it exists. Implementations must
// be cheap and must not call back into the Recorder.
type IterSink interface {
	// ObserveIteration is called once per recorded iteration, after the
	// record is stored.
	ObserveIteration(rec IterRecord)
	// ObserveSuperstep is called once per BSP superstep of a sharded run
	// with the per-shard body durations, the barrier wait (total idle time
	// shards spent waiting for the slowest peer), and the halo labels
	// exchanged. durs is only valid for the duration of the call.
	ObserveSuperstep(iter int, durs []time.Duration, barrierWait time.Duration, exchanged int64)
}

// Recorder collects kernel launches and iteration records for one or more
// runs; attach it to a device via nulpa.Options.Profiler (or
// simt.Device.Prof directly). All methods are safe for concurrent use:
// devices of a sharded run record their launches in parallel.
type Recorder struct {
	mu         sync.Mutex
	launches   []Launch
	iters      []IterRecord
	sink       IterSink
	qualityObs QualityObserver
}

// SetSink attaches an IterSink that will observe every subsequent
// RecordIteration and RecordSuperstep. A nil sink detaches. Safe to call
// concurrently with recording.
func (r *Recorder) SetSink(s IterSink) {
	r.mu.Lock()
	r.sink = s
	r.mu.Unlock()
}

// RecordSuperstep forwards one BSP superstep's shard timing to the attached
// sink. With no sink attached it is a zero-allocation no-op — engine.ShardLoop
// calls it unconditionally whenever a profiler is present.
func (r *Recorder) RecordSuperstep(iter int, durs []time.Duration, barrierWait time.Duration, exchanged int64) {
	r.mu.Lock()
	s := r.sink
	r.mu.Unlock()
	if s != nil {
		s.ObserveSuperstep(iter, durs, barrierWait, exchanged)
	}
}

// NewRecorder returns an empty Recorder.
func NewRecorder() *Recorder {
	return &Recorder{}
}

// RecordLaunch stores one finished launch, numbering it with the next
// launch ID. The recorder owns l.SMs from then on.
func (r *Recorder) RecordLaunch(l Launch) {
	r.mu.Lock()
	l.ID = len(r.launches)
	r.launches = append(r.launches, l)
	r.mu.Unlock()
}

// RecordIteration appends an iteration record. Algorithm loops call it once
// per iteration, right after the iteration completes.
func (r *Recorder) RecordIteration(rec IterRecord) {
	r.mu.Lock()
	r.iters = append(r.iters, rec)
	s := r.sink
	r.mu.Unlock()
	if s != nil {
		s.ObserveIteration(rec)
	}
}

// Launches returns a copy of the recorded kernel launches in launch order.
// Their SMs slices are the recorder's and must not be modified.
func (r *Recorder) Launches() []Launch {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Launch(nil), r.launches...)
}

// IterRecords returns a copy of the recorded iteration records in order.
func (r *Recorder) IterRecords() []IterRecord {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]IterRecord(nil), r.iters...)
}

// KernelSummary aggregates every launch of one kernel.
type KernelSummary struct {
	Kernel   string
	Launches int
	// Total is the summed wall time of the launches.
	Total time.Duration
	// SMBusy is the summed busy time across all SM spans — the device-side
	// work; Total×NumSMs − SMBusy is idle tail time.
	SMBusy time.Duration
	Blocks int64
	Phases int64
	Lanes  int64
	// Work is the summed algorithmic work ledger of the launches.
	Work WorkCounts
}

// KernelSummaries aggregates launches per kernel name, in first-launch
// order.
func (r *Recorder) KernelSummaries() []KernelSummary {
	r.mu.Lock()
	defer r.mu.Unlock()
	idx := map[string]int{}
	var out []KernelSummary
	for _, l := range r.launches {
		i, ok := idx[l.Kernel]
		if !ok {
			i = len(out)
			idx[l.Kernel] = i
			out = append(out, KernelSummary{Kernel: l.Kernel})
		}
		s := &out[i]
		s.Launches++
		s.Total += l.End.Sub(l.Start)
		s.Work = s.Work.Add(l.Work)
		for _, sm := range l.SMs {
			s.SMBusy += sm.Busy()
			s.Blocks += sm.Blocks
			s.Phases += sm.Phases
			s.Lanes += sm.Lanes
		}
	}
	return out
}

// SMUtil is one device SM's aggregate over every recorded launch.
type SMUtil struct {
	Device int
	SM     int
	Busy   time.Duration
	Blocks int64
}

// SMUtilization aggregates busy time and blocks executed per device SM
// across all launches — the load-balance view of the ID-based block
// assignment. Rows are ordered by device, then SM.
func (r *Recorder) SMUtilization() []SMUtil {
	r.mu.Lock()
	defer r.mu.Unlock()
	var devices [][]SMUtil
	for _, l := range r.launches {
		for l.Device >= len(devices) {
			devices = append(devices, nil)
		}
		rows := devices[l.Device]
		for _, sm := range l.SMs {
			for sm.SM >= len(rows) {
				rows = append(rows, SMUtil{Device: l.Device, SM: len(rows)})
			}
			rows[sm.SM].Busy += sm.Busy()
			rows[sm.SM].Blocks += sm.Blocks
		}
		devices[l.Device] = rows
	}
	var out []SMUtil
	for _, rows := range devices {
		out = append(out, rows...)
	}
	return out
}
