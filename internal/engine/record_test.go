package engine_test

import (
	"slices"
	"testing"

	"nulpa/internal/engine"
	"nulpa/internal/gen"
	"nulpa/internal/graph"
	"nulpa/internal/nulpa"
	"nulpa/internal/telemetry"
)

// nulpaDetectors are the three registered ν-LPA configurations.
var nulpaDetectors = []string{"nulpa", "nulpa-sharded", "nulpa-direct"}

// detectNulpa runs detector name at 1 worker, with a fresh recorder when
// profiled, and returns its native result.
func detectNulpa(t *testing.T, name string, g *graph.CSR, profiled bool) *nulpa.Result {
	t.Helper()
	det, err := engine.MustGet(name)
	if err != nil {
		t.Fatal(err)
	}
	opt := engine.DefaultOptions()
	opt.Workers = 1
	if profiled {
		opt.Profiler = telemetry.NewRecorder()
	}
	res, err := det.Detect(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	return res.Extra.(*nulpa.Result)
}

// TestRecordBackendIndependent pins the one counting rule of the
// per-iteration record: on every ν-LPA backend the work and hashtable
// counters run if and only if the run reports to a profiler, a profiled
// run's Pruned is the listed vertices it skipped, and counting never changes
// the labels.
func TestRecordBackendIndependent(t *testing.T) {
	for gname, g := range conformanceGraphs() {
		var listed int64
		for v := 0; v < g.NumVertices(); v++ {
			if g.Degree(graph.Vertex(v)) > 0 {
				listed++
			}
		}
		for _, name := range nulpaDetectors {
			t.Run(name+"/"+gname, func(t *testing.T) {
				bare := detectNulpa(t, name, g, false)
				prof := detectNulpa(t, name, g, true)
				for _, r := range bare.Trace {
					if r.EdgeVisits|r.ActiveVertices|r.Pruned|r.HashAccumulates|
						r.HashProbes|r.HashCollisions|r.HashFallbacks != 0 {
						t.Errorf("unprofiled iter %d counted: %+v", r.Iter, r)
					}
				}
				for _, r := range prof.Trace {
					if r.Pruned+r.ActiveVertices != listed {
						t.Errorf("profiled iter %d: pruned %d + active %d != listed %d",
							r.Iter, r.Pruned, r.ActiveVertices, listed)
					}
					if r.EdgeVisits == 0 && r.ActiveVertices > 0 {
						t.Errorf("profiled iter %d processed %d vertices but visited no edges", r.Iter, r.ActiveVertices)
					}
				}
				if !slices.Equal(bare.Labels, prof.Labels) {
					t.Error("profiled and unprofiled labels differ")
				}
			})
		}
	}
}

// TestKMerNonConvergencePinned keeps ν-LPA's k-mer non-convergence visible:
// the strict first-max tie-break moves vertices between tied labels along
// degree-2 chains, so the single-device backends exhaust the 20-iteration
// cap with ΔN still above τ·|V|. The sharded run's BSP barrier and tighter
// Pick-Less period let it converge.
func TestKMerNonConvergencePinned(t *testing.T) {
	g := gen.KMer(gen.DefaultKMer(20000, 1))
	def := nulpa.DefaultOptions()
	threshold := def.Tolerance * float64(g.NumVertices())
	for _, name := range []string{"nulpa", "nulpa-direct"} {
		res := detectNulpa(t, name, g, false)
		last := res.Trace[len(res.Trace)-1].DeltaN
		if res.Converged || res.Iterations != def.MaxIterations {
			t.Errorf("%s: converged=%v after %d iterations, want the %d-iteration cap",
				name, res.Converged, res.Iterations, def.MaxIterations)
		}
		if float64(last) <= threshold {
			t.Errorf("%s: final ΔN %d is within τ·|V| = %g", name, last, threshold)
		}
	}
	if res := detectNulpa(t, "nulpa-sharded", g, false); !res.Converged {
		t.Errorf("nulpa-sharded: did not converge in %d iterations", res.Iterations)
	}
}
