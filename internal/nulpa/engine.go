package nulpa

import (
	"fmt"

	"nulpa/internal/engine"
	"nulpa/internal/graph"
)

func init() {
	engine.Register(Detector{})
	engine.Register(Detector{Direct: true})
	engine.Register(Detector{Sharded: true})
}

// Detector adapts ν-LPA to the engine seam. It registers three times —
// "nulpa", "nulpa-direct" and "nulpa-sharded" — because the configurations
// are compared against each other in the figure experiments.
type Detector struct {
	// Direct makes this the "nulpa-direct" detector: it runs in the direct
	// configuration (see DirectOptions), whatever SwitchDegree, BlockDim
	// and Shards the options carry.
	Direct bool
	// Sharded makes this the "nulpa-sharded" detector: its defaults are
	// DefaultShardedOptions, and an Extra that leaves Shards zero runs on
	// DefaultShards devices.
	Sharded bool
}

// Defaults returns the options the registered ν-LPA detector called name
// starts from — DefaultShardedOptions for "nulpa-sharded", DefaultOptions
// for "nulpa" and "nulpa-direct" (which applies the direct configuration
// itself) — and false for any other name. It is how the CLI and the job
// plane tell the ν-LPA detectors from the rest and build their Extra.
func Defaults(name string) (Options, bool) {
	switch name {
	case "nulpa", "nulpa-direct":
		return DefaultOptions(), true
	case "nulpa-sharded":
		return DefaultShardedOptions(), true
	}
	return Options{}, false
}

// Name implements engine.Detector.
func (d Detector) Name() string {
	switch {
	case d.Direct:
		return "nulpa-direct"
	case d.Sharded:
		return "nulpa-sharded"
	}
	return "nulpa"
}

// Detect implements engine.Detector. Engine options map onto the paper
// configuration: MaxIterations and Tolerance override the published defaults
// when non-zero, BlockDim sets the launch width (except on nulpa-direct),
// Workers sets the simulated SM count of each fresh device. Seed is
// ignored — ν-LPA is deterministic by construction. Extra may carry a full
// nulpa.Options to control the algorithm-specific knobs (Pick-Less and
// Cross-Check periods, probing scheme, switch degree, pruning).
func (d Detector) Detect(g *graph.CSR, opt engine.Options) (*engine.Result, error) {
	nopt, _ := Defaults(d.Name())
	if opt.Extra != nil {
		o, ok := opt.Extra.(Options)
		if !ok {
			return nil, fmt.Errorf("nulpa: Extra must be nulpa.Options, got %T", opt.Extra)
		}
		nopt = o
	}
	if d.Sharded && nopt.Shards == 0 {
		nopt.Shards = DefaultShards
	}
	if opt.Context != nil {
		nopt.Context = opt.Context
	}
	if opt.MaxIterations > 0 {
		nopt.MaxIterations = opt.MaxIterations
	}
	if opt.Tolerance > 0 {
		nopt.Tolerance = opt.Tolerance
	}
	if opt.BlockDim > 0 {
		nopt.BlockDim = opt.BlockDim
	}
	if opt.Workers > 0 {
		nopt.Workers = opt.Workers
	}
	if d.Direct {
		nopt = asDirect(nopt)
	}
	if nopt.Shards > 1 && nopt.CrossCheckEvery > 0 {
		// An Extra carrying the single-device configuration stays usable on
		// a sharded run: Cross-Check simply cannot run there (the BSP
		// barrier supersedes it — see checkOptions).
		nopt.CrossCheckEvery = 0
	}
	if opt.Profiler != nil {
		nopt.Profiler = opt.Profiler
	}
	nres, err := Detect(g, nopt)
	if err != nil {
		return nil, err
	}
	res := engine.NewResult(nres.Labels)
	res.Iterations = nres.Iterations
	res.Converged = nres.Converged
	res.Trace = nres.Trace
	res.Duration = nres.Duration
	res.MemoryBytes = nres.DeviceBytes
	res.Extra = nres
	return res, nil
}
