// Package httpapi is the monitoring and job plane of the repository: an HTTP
// server that runs community detections as background jobs through the engine
// registry and exposes the live metrics registry while they run.
//
// Routes:
//
//	GET  /healthz      liveness probe ("ok"; never drains)
//	GET  /readyz       readiness probe (503 while draining or registry empty)
//	GET  /metrics      Prometheus text format (internal/metrics)
//	GET  /algos        registered detector names (JSON)
//	POST /jobs         submit a JobSpec; 202 + job id, or 429/503 when shed
//	                   (400 for a graph.path: clients name generated graphs)
//	GET  /jobs         all job statuses
//	GET  /jobs/{id}    one job, with live iteration progress while running
//	GET  /jobs/{id}/flight  flight-recorder bundle (auto-captured on fault)
//	GET  /debug/live/{id}   SSE stream: one health frame per iteration
//	GET  /debug/trace  recent traces (one summary per trace in the ring)
//	GET  /debug/trace/{id}         one trace as a span tree
//	GET  /debug/trace/{id}/chrome  unified Chrome trace (spans + profiler)
//	GET  /debug/pprof  the standard runtime profiles
//
// Jobs attach a telemetry.Recorder as the engine profiler, so /jobs/{id}
// reports iteration-grained progress from the same records the -trace and
// -profile flags render. Every ν-LPA device, one per shard on nulpa-sharded,
// reports to that recorder, and a profiled kernel launch feeds the metrics
// plane itself, which is what makes a mid-run scrape of /metrics show
// kernel, occupancy, work and hashtable activity.
//
// Every job additionally opens a root span on the process tracer
// (internal/trace): the job's trace id appears in its JSON status, in the
// X-Trace-Id response header, and on its log lines, and keys the
// /debug/trace endpoints. Requests are logged through log/slog with an
// X-Request-Id correlation token.
//
// Admission: jobs execute on a fixed device pool (internal/sched), not one
// goroutine per request. POST /jobs passes through admission control —
// bounded priority queue (JobSpec.Priority), per-tenant token-bucket quota
// keyed on the X-Tenant header, deadline feasibility (JobSpec.DeadlineMS),
// and coalescing/caching of submissions with identical fingerprints. A shed
// is 429 (queue-full, quota) or 503 (draining, would-miss-deadline) with a
// Retry-After header and a JSON body naming the reason; an accepted job may
// come back Coalesced (attached to an identical in-flight run) or CacheHit
// (served from the completed-result LRU). See DESIGN.md §14.
package httpapi

import (
	"fmt"
	"math"
	"strings"

	"nulpa/internal/gen"
	"nulpa/internal/graph"
)

// GraphSpec names an input graph: a file path, or a generator with its
// parameters — the same surface as cmd/nulpa's -graph/-gen flags, which
// delegate here.
type GraphSpec struct {
	// Path loads a graph file (.mtx, .bin, or edge list). When set, the
	// generator fields are ignored. Only the in-process Server.Submit
	// accepts it; POST /jobs refuses it with a 400.
	Path string `json:"path,omitempty"`
	// Gen selects a generator, one of Generators.
	Gen string `json:"gen,omitempty"`
	// N is the generator vertex count (rmat: rounded up to a power of two).
	N int `json:"n,omitempty"`
	// Deg is the generator average-degree parameter.
	Deg int `json:"deg,omitempty"`
	// Seed drives the generator.
	Seed int64 `json:"seed,omitempty"`
}

// Generators names the graph classes GraphSpec.Gen accepts: social is the
// LFR-style graph with planted communities, rmat the R-MAT power-law graph
// without them, and rgg a random geometric graph in the unit square.
const Generators = "web, social, rmat, road, kmer, er, planted, rgg"

// Build loads or generates the graph the spec names.
func (s GraphSpec) Build() (*graph.CSR, error) {
	if s.Path != "" {
		return graph.ReadFile(s.Path)
	}
	n, deg := s.N, s.Deg
	if n <= 0 {
		n = 100000
	}
	if deg <= 0 {
		deg = 8
	}
	switch s.Gen {
	case "web":
		return gen.Web(gen.DefaultWeb(n, deg, s.Seed)), nil
	case "social":
		g, _ := gen.Social(gen.DefaultSocial(n, deg, s.Seed))
		return g, nil
	case "rmat":
		scale := 0
		for 1<<scale < n {
			scale++
		}
		return gen.RMAT(gen.DefaultRMAT(scale, deg, s.Seed)), nil
	case "road":
		return gen.Road(gen.DefaultRoad(n, s.Seed)), nil
	case "kmer":
		return gen.KMer(gen.DefaultKMer(n, s.Seed)), nil
	case "er":
		return gen.ErdosRenyi(n, n*deg/2, s.Seed), nil
	case "planted":
		g, _ := gen.Planted(gen.PlantedConfig{
			N: n, Communities: 16, DegIn: float64(deg), DegOut: 1, Seed: s.Seed,
		})
		return g, nil
	case "rgg":
		// The radius that gives an expected degree of deg (n·π·r² = deg).
		return gen.RGG(n, math.Sqrt(float64(deg)/(math.Pi*float64(n))), s.Seed), nil
	case "":
		return nil, fmt.Errorf("graph spec needs path or gen (%s)", Generators)
	default:
		return nil, fmt.Errorf("unknown generator %q", s.Gen)
	}
}

// String renders the spec for job listings: the path, or "gen(n=...,deg=...)".
func (s GraphSpec) String() string {
	if s.Path != "" {
		return s.Path
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s(n=%d,deg=%d,seed=%d)", s.Gen, s.N, s.Deg, s.Seed)
	return b.String()
}
