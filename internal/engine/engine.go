// Package engine is the unified community-detection seam of the repository:
// a Detector interface every algorithm implements, a string-keyed registry
// that the CLIs and the experiment harness dispatch through, and the shared
// machinery the implementations previously duplicated — the tolerance-based
// convergence loop (Loop), label renumbering (CompressLabels), and
// per-iteration telemetry emission. Every detector iterates through Loop
// (FLPA's queue generations included), so Loop is the one place an
// iteration's record leaves a detector: for the iteration span, the
// engine_* metrics, the profiler and its health sink, and the quality
// plane. A run's totals are sums of its records (telemetry.Sum).
//
// Layering: engine depends only on the graph and telemetry substrates.
// Algorithm packages (nulpa, flpa, plp, gvelpa, gunrock, louvain, variants)
// import engine and register a Detector in their init; consumers import
// nulpa/internal/engine/all for its registration side effect and then reach
// every algorithm by name. Cross-algorithm imports are forbidden (enforced
// by `make lint`): the registry is the only seam between an algorithm and
// the rest of the system, which is what lets new backends and workloads plug
// in without a tenth copy of the dispatch switch.
package engine

import (
	"context"
	"fmt"
	"time"

	"nulpa/internal/graph"
	"nulpa/internal/quality"
	"nulpa/internal/telemetry"
)

// Detector is a community-detection algorithm registered with the engine.
// Implementations must be safe for repeated Detect calls; each call is an
// independent run.
type Detector interface {
	// Name is the registry key, e.g. "nulpa" or "flpa". Stable, lowercase,
	// flag-friendly.
	Name() string
	// Detect runs the algorithm on g. The graph must be undirected, as
	// produced by the graph package builders.
	Detect(g *graph.CSR, opt Options) (*Result, error)
}

// Options is the unified run configuration shared by every detector. The
// zero value of each field means "use the algorithm's published default", so
// Options{} runs any detector in its reference configuration. Fields a
// detector has no analogue for are ignored (documented per detector).
type Options struct {
	// Context carries cancellation and a per-run deadline. Every detector
	// checks it at least once per outer-loop iteration and returns
	// ErrCanceled or ErrDeadline when it ends the run early. nil means
	// context.Background() (no cancellation).
	Context context.Context
	// MaxIterations caps the algorithm's outer loop (propagation rounds;
	// aggregation levels for Louvain). 0 keeps the algorithm's default.
	MaxIterations int
	// Tolerance is the convergence threshold τ for tolerance-based loops:
	// the run stops once fewer than τ·|V| vertices change in an iteration.
	// 0 keeps the algorithm's default.
	Tolerance float64
	// Seed drives any randomness the algorithm uses (tie-breaking, speaker
	// choices). Detectors run deterministically for a fixed Seed when
	// Workers is 1.
	Seed int64
	// Workers bounds parallelism: simulated streaming multiprocessors per
	// device for ν-LPA, worker goroutines for plp, gvelpa, gunrock and
	// louvain (where a value above 1 selects the parallel local-moving
	// sweep). 0 selects the host default (GOMAXPROCS; louvain's sequential
	// sweep). flpa and the variants are sequential and ignore it.
	Workers int
	// BlockDim is the threads-per-block launch parameter for GPU-style
	// detectors. 0 keeps the detector's default.
	BlockDim int
	// Profiler, when non-nil, receives every per-iteration record as it is
	// produced (and device-level kernel events where the backend supports
	// them) — the telemetry sink behind cmd/nulpa's -trace and -profile.
	Profiler *telemetry.Recorder
	// Quality enables the per-iteration quality telemetry plane: the
	// registry's instrumented wrapper attaches an incremental modularity
	// tracker to the run's Profiler (creating one if needed), and the
	// convergence loop feeds it each iteration's labels. Results gain
	// Quality, and each observed Trace record its Quality. Disabled (the
	// zero value) it costs nothing.
	Quality QualityConfig
	// Extra is ν-LPA's extension point: the ν-LPA detectors take a
	// nulpa.Options here for their algorithm-specific knobs (Pick-Less and
	// Cross-Check periods, probing, switch degree, faults). Every other
	// detector runs its algorithm-only knobs at their published values and
	// returns an error for any non-nil Extra (see NoExtra), as ν-LPA does for
	// one of the wrong type: an option is never silently ignored.
	Extra any
}

// NoExtra is the Extra check of the detectors that take none: nil, or an
// error naming the detector and the type it was given.
func NoExtra(name string, extra any) error {
	if extra == nil {
		return nil
	}
	return fmt.Errorf("%s: takes no Extra (Extra is ν-LPA's), got %T", name, extra)
}

// DefaultOptions returns the engine-level defaults: algorithm-published
// parameters and a fixed seed.
func DefaultOptions() Options { return Options{Seed: 1} }

// Result is the unified outcome of a Detect call.
type Result struct {
	// Labels is the community membership of every vertex, compressed to the
	// dense range [0, Communities).
	Labels []uint32
	// Communities is the number of distinct communities in Labels.
	Communities int
	// Iterations is the number of outer-loop rounds performed (queue
	// generations for FLPA, aggregation levels for Louvain).
	Iterations int
	// Converged reports whether the algorithm's own stopping rule ended the
	// run (false when an iteration cap was exhausted first, and for
	// fixed-budget algorithms with no stopping rule).
	Converged bool
	// Trace holds one telemetry record per iteration, in order.
	Trace []telemetry.IterRecord
	// Duration is the wall time of the detection loop (excluding graph
	// loading and result conversion).
	Duration time.Duration
	// MemoryBytes is the algorithm-managed working memory of the run —
	// simulated device memory for the SIMT backend, per-thread table bytes
	// for GVE-LPA; 0 when the algorithm does not account for it.
	MemoryBytes int64
	// Extra carries native detail no other field holds: *nulpa.Result for
	// the ν-LPA detectors, *variants.SLPAResult (label memories, for
	// overlapping membership) and *variants.COPRAResult (belonging
	// coefficients); nil for every other detector.
	Extra any
	// Quality is the end-of-run quality summary (exact modularity, estimator
	// drift, census), present when Options.Quality was enabled; the
	// per-iteration records are Trace[i].Quality.
	Quality *quality.FinalStats
}

// NewResult builds a Result from raw per-vertex labels, compressing them and
// counting communities. Adapters fill the remaining fields.
func NewResult(labels []uint32) *Result {
	compressed, k := CompressLabels(labels)
	return &Result{Labels: compressed, Communities: k}
}

// Clone returns a deep copy of the result's owned slices (labels and trace).
// The scheduler's result cache hands one detection to many coalesced jobs;
// cloning keeps a consumer that relabels or truncates from corrupting its
// siblings. Extra and the trace's quality records are shared — they are
// treated as immutable once the run returns.
func (r *Result) Clone() *Result {
	if r == nil {
		return nil
	}
	c := *r
	c.Labels = append([]uint32(nil), r.Labels...)
	c.Trace = append([]telemetry.IterRecord(nil), r.Trace...)
	if r.Quality != nil {
		q := *r.Quality
		c.Quality = &q
	}
	return &c
}
