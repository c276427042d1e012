// Package nulpa implements ν-LPA, the paper's GPU Label Propagation
// Algorithm for community detection (Algorithms 1 and 2): asynchronous LPA
// with the Pick-Less swap-mitigation method every ρ iterations, per-vertex
// open-addressing hashtables with hybrid quadratic-double probing, vertex
// pruning, and a two-kernel split between low-degree (thread-per-vertex) and
// high-degree (block-per-vertex) vertices.
//
// Every run executes on simulated GPUs (package simt), preserving lockstep
// semantics — the community-swap pathology only exists under lockstep.
// Options.Shards sets the device count: one device (the paper's setting) is
// the single-shard case of the multi-device BSP run. The nulpa-direct
// detector runs the direct configuration of that same run — one device, every vertex on
// the thread-per-vertex kernel in 1024-vertex blocks — used to time ν-LPA
// against CPU baselines and as the recovery ladder's last rung.
package nulpa

import (
	"context"
	"math"
	"time"

	"nulpa/internal/faults"
	"nulpa/internal/hashtable"
	"nulpa/internal/simt"
	"nulpa/internal/telemetry"
)

// DefaultShards is the device count the nulpa-sharded detector uses when
// Options.Shards is left zero.
const DefaultShards = 4

// Options configure a ν-LPA run. DefaultOptions matches the paper's final
// configuration.
type Options struct {
	// MaxIterations caps label-propagation iterations (paper: 20).
	MaxIterations int
	// Tolerance is the per-iteration convergence threshold τ: the run
	// stops once ΔN/N < τ in a non-pick-less iteration (paper: 0.05).
	Tolerance float64
	// PickLessEvery is ρ: iterations l with l mod ρ == 0 restrict moves to
	// strictly smaller labels (paper: 4). 0 disables Pick-Less.
	PickLessEvery int
	// CrossCheckEvery enables the Cross-Check method with the given
	// period: after iterations l with l mod period == 0, "bad" community
	// changes (new community whose leader left) are reverted. 0 disables.
	CrossCheckEvery int
	// Probing selects hashtable collision resolution (paper:
	// quadratic-double).
	Probing hashtable.Probing
	// ValueKind selects hashtable value width (paper: float32).
	ValueKind hashtable.ValueKind
	// Coalesced switches to the coalesced-chaining hashtable (appendix
	// figure); Probing is ignored when set.
	Coalesced bool
	// SwitchDegree splits work between kernels: vertices with degree
	// strictly below it go to the thread-per-vertex kernel, the rest to
	// the block-per-vertex kernel (paper: 32).
	SwitchDegree int
	// BlockDim is threads per block for both kernels (default 256).
	BlockDim int
	// Device is the simulated GPU of a single-device run; nil selects a
	// fresh device. Sharded runs (Shards > 1) create one device per shard,
	// so they ignore it.
	Device *simt.Device
	// Workers sets the SM count of each fresh simulated device; 0 selects
	// GOMAXPROCS (divided across the devices of a sharded run).
	Workers int
	// Profiler, when non-nil, receives one record per kernel launch (with
	// its per-SM busy spans) and a copy of every per-iteration record. A run counts its work and hashtable probes —
	// the records' EdgeVisits, ActiveVertices, Pruned and Hash* fields — if
	// and only if it reports to a profiler: this one, or a profiler already
	// on Device.
	Profiler *telemetry.Recorder
	// DisablePruning turns off the vertex-pruning optimization (every
	// vertex is processed every iteration) — the ablation for the paper's
	// feature (4) in §4.
	DisablePruning bool
	// Context carries cancellation and a per-run deadline; nil means no
	// cancellation. An interrupted run returns engine.ErrCanceled or
	// engine.ErrDeadline.
	Context context.Context
	// Faults, when non-nil, injects the deterministic fault schedule into
	// the run: it is installed as the launch-fault injector of every device
	// that has none and consulted for label-array bit-flips after each
	// iteration. A device with an injector checkpoints every iteration; an
	// iteration gets three attempts before the run degrades to the
	// sequential direct configuration (see Detect).
	Faults *faults.Injector
	// Shards is the simulated device count (clamped to the vertex count).
	// 0 and 1 both run on one device; above 1 the graph is partitioned
	// across the devices, which run BSP supersteps with halo exchange at
	// the barriers.
	Shards int
	// ShardParts, when non-nil, supplies a precomputed vertex→shard
	// assignment (length |V|, values < Shards) and skips the internal
	// partitioner — bring-your-own-partition for tests and external
	// partition pipelines. Sharded runs only.
	ShardParts []uint32
	// ShardFaults, when non-nil, installs a per-shard fault injector on each
	// shard's device (index = shard id; nil entries leave that shard
	// fault-free), overriding Faults for those devices. This is how chaos
	// tests fault one shard while its peers run clean.
	ShardFaults []*faults.Injector
}

// DefaultOptions returns the paper's published configuration: 20 iterations,
// τ = 0.05, Pick-Less every 4 iterations, quadratic-double probing, float32
// values, switch degree 32.
func DefaultOptions() Options {
	return Options{
		MaxIterations: 20,
		Tolerance:     0.05,
		PickLessEvery: 4,
		Probing:       hashtable.QuadraticDouble,
		ValueKind:     hashtable.Float32,
		SwitchDegree:  32,
		BlockDim:      256,
	}
}

// DefaultShardedOptions returns the paper configuration adapted for
// multi-device execution: DefaultShards devices, with Cross-Check off
// (unsupported under sharding — the BSP barrier supersedes it; see
// checkOptions). Pick-Less tightens to ρ = 3: ghost labels are one
// superstep stale, so boundary vertices oscillate more than the
// single-device run, and a slightly more frequent tie-break keeps the total
// edge visits within ~1.1× of single-device at matched quality.
func DefaultShardedOptions() Options {
	opt := DefaultOptions()
	opt.Shards = DefaultShards
	opt.PickLessEvery = 3
	return opt
}

// asDirect returns opt in the direct configuration, the one the
// nulpa-direct detector runs: one device, every non-isolated vertex on the
// thread-per-vertex kernel (SwitchDegree = math.MaxInt) and 1024-vertex
// blocks. A block picks a candidate for each of its vertices against a
// pre-move snapshot, then moves them all, so Pick-Less iterations cannot
// cascade one small label across a community in a single pass, and blocks
// run concurrently on the device's Workers SMs. Its launch shape and device
// count are replaced, every other field is kept.
func asDirect(opt Options) Options {
	opt.SwitchDegree = math.MaxInt
	opt.BlockDim = 1024
	opt.Shards = 0
	return opt
}

// Result reports a completed ν-LPA run. Its run totals are sums of the
// trace: moves are Σ DeltaN, Cross-Check reverts Σ Reverts, fault-recovery
// retries Σ Retries, hashtable counts Σ Hash* (telemetry.Sum adds them all),
// and halo labels exchanged Σ ShardStats[s].HaloLabelsIn.
type Result struct {
	// Labels is the community membership of each vertex.
	Labels []uint32
	// Iterations actually performed.
	Iterations int
	// Converged reports whether the tolerance test stopped the run (false
	// when MaxIterations was exhausted — the paper's symptom of unmitigated
	// community swaps).
	Converged bool
	// Trace records per-iteration diagnostics (always populated; one entry
	// per iteration), in the record type the baselines report too.
	Trace []telemetry.IterRecord
	// Duration is the wall time of the propagation loop (excluding graph
	// loading, including kernel launches).
	Duration time.Duration
	// DeviceBytes is the simulated device memory the run reserved.
	DeviceBytes int64
	// Rollbacks is the number of checkpoint restores — one per failed
	// attempt that had a checkpoint to return to. A degraded run counts
	// those of the faulted attempt it replaced.
	Rollbacks int64
	// Degraded reports that the run exhausted its recovery budget and was
	// recomputed sequentially: the direct configuration at 1 SM on a
	// fresh, fault-free device.
	Degraded bool
	// CutArcs is the number of boundary-crossing arcs of the shard plan
	// (sharded runs; each cut undirected edge counted twice).
	CutArcs int64
	// ShardStats holds per-shard execution detail, one entry per shard. A
	// single-device run is the one shard, owning every vertex; it takes no
	// census (Communities stays 0).
	ShardStats []ShardStat
}

// ShardStat is one shard's share of a sharded run.
type ShardStat struct {
	// Shard is the shard id.
	Shard int
	// Owned is the number of vertices the shard is authoritative for.
	Owned int
	// Ghosts is the number of halo rows mirrored from other shards.
	Ghosts int
	// CutArcs counts arcs from owned vertices into the halo.
	CutArcs int64
	// DeviceBytes is the shard device's memory reservation.
	DeviceBytes int64
	// HaloLabelsIn is the number of changed ghost labels this shard
	// received across all supersteps.
	HaloLabelsIn int64
	// Retries and Rollbacks are the shard's fault-recovery counts; a fault
	// on one shard rolls back that shard only.
	Retries   int64
	Rollbacks int64
	// Moves is the shard's label-change count across the run, net of
	// Cross-Check reverts — the quality plane's per-shard churn attribution.
	Moves int64
	// Communities is the number of distinct labels among the shard's owned
	// vertices at the end of the run (communities spanning shards count once
	// per shard they touch).
	Communities int
}
