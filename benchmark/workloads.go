package main

import (
	"nulpa/internal/gen"
	"nulpa/internal/graph"
	"nulpa/internal/httpapi"
	"nulpa/internal/nulpa"
)

// workload is one input set the benchmark runs. BENCHMARK.json records why
// each exists; the layer each one isolates is in README.md.
type workload struct {
	name string
	// graph generates the one-shot input from the run's seed.
	graph func(seed int64) *graph.CSR
	// algo is the engine registry name of the detector; extra its
	// engine.Options.Extra.
	algo  string
	extra any
	// serve makes the untraced run serve jobs over HTTP instead of running
	// the one-shot path. job is the graph each job names (its seed is set
	// per job); one-shot workloads serve it only in the traced run's probe.
	serve bool
	job   httpapi.GraphSpec
	// warmup is the number of untimed reps (or jobs) before measuring.
	warmup int
	// floor is the lowest modularity an output may have and still count as
	// correct: 0.05 below the median measured when the benchmark was
	// defined, or 0.05 below the lowest rep measured then where that is lower
	// (social-sharded, whose reps ranged from 0.50 to 0.68). jobFloor is the
	// floor of a served job.
	floor, jobFloor float64
}

// sharded reports whether w's detector is the sharded backend.
func (w *workload) sharded() bool { return w.algo == "nulpa-sharded" }

// Sizes of the full-scale workloads; smoke tests shrink them to toy scale.
const (
	webN    = 200000
	roadN   = 400000
	socialN = 65536
	jobN    = 20000
)

// workloads returns the benchmark's workloads, at toy scale (n ≈ 2k) when
// short is set. Toy graphs have no meaningful modularity, so their floor
// only demands a non-trivial partition.
func workloads(short bool) []*workload {
	scale := func(n int) int {
		if short {
			return 2000
		}
		return n
	}
	floor := func(q float64) float64 {
		if short {
			return 0.05
		}
		return q
	}
	sharded := nulpa.DefaultShardedOptions()
	sharded.Shards = 2
	jobSpec := httpapi.GraphSpec{Gen: "web", N: scale(jobN), Deg: 8}
	jobFloor := floor(0.42)
	ws := []*workload{
		{
			name:     "web-simt",
			graph:    func(s int64) *graph.CSR { return gen.Web(gen.DefaultWeb(scale(webN), 8, s)) },
			algo:     "nulpa",
			job:      jobSpec,
			warmup:   2,
			floor:    floor(0.41),
			jobFloor: jobFloor,
		},
		{
			name:     "road-simt",
			graph:    func(s int64) *graph.CSR { return gen.Road(gen.DefaultRoad(scale(roadN), s)) },
			algo:     "nulpa",
			job:      jobSpec,
			warmup:   2,
			floor:    floor(0.81),
			jobFloor: jobFloor,
		},
		{
			name: "social-sharded",
			graph: func(s int64) *graph.CSR {
				g, _ := gen.Social(gen.DefaultSocial(scale(socialN), 32, s))
				return g
			},
			algo:     "nulpa-sharded",
			extra:    sharded,
			job:      jobSpec,
			warmup:   1,
			floor:    floor(0.45),
			jobFloor: jobFloor,
		},
		{
			name: "jobs-web",
			// The graph a job with jobSpec and seed s builds on the server.
			graph:    func(s int64) *graph.CSR { return gen.Web(gen.DefaultWeb(scale(jobN), 8, s)) },
			algo:     "nulpa",
			serve:    true,
			job:      jobSpec,
			warmup:   2,
			floor:    jobFloor,
			jobFloor: jobFloor,
		},
	}
	if short {
		for _, w := range ws {
			w.warmup = 0
		}
	}
	return ws
}
