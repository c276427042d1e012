package engine_test

import (
	"fmt"
	"testing"

	"nulpa/internal/engine"
	"nulpa/internal/graph"
	"nulpa/internal/hashtable"
	"nulpa/internal/nulpa"
	"nulpa/internal/telemetry"
)

// TestBlockKernelRunsOnlyWorkingLanes guards the block-per-vertex kernel's
// lane budget. A block runs lane 0 in its claim and reduce phases, one lane
// per hashtable slot in its clear and partial-max phases, and one lane per
// neighbour in its accumulate and wake-up phases, each capped at BlockDim.
// Every launch must stay within the sum of that budget over its blocks; a
// return to running all BlockDim lanes in every phase fails here.
func TestBlockKernelRunsOnlyWorkingLanes(t *testing.T) {
	graphs := conformanceGraphs()
	cases := []struct {
		graph        string
		switchDegree int
	}{
		{"web", nulpa.DefaultOptions().SwitchDegree},
		{"web", 0},
		{"planted", 0},
	}
	for _, c := range cases {
		t.Run(fmt.Sprintf("%s/switch%d", c.graph, c.switchDegree), func(t *testing.T) {
			g := graphs[c.graph]
			nopt := nulpa.DefaultOptions()
			nopt.SwitchDegree = c.switchDegree
			rec := telemetry.NewRecorder()
			opt := engine.DefaultOptions()
			opt.Workers, opt.Profiler, opt.Extra = 1, rec, nopt
			det, err := engine.MustGet("nulpa")
			if err != nil {
				t.Fatal(err)
			}
			if _, err := det.Detect(g, opt); err != nil {
				t.Fatal(err)
			}

			var budget int64
			for v := 0; v < g.NumVertices(); v++ {
				deg := g.Degree(graph.Vertex(v))
				if deg == 0 || deg < nopt.SwitchDegree {
					continue
				}
				slots := min(int(hashtable.CapacityFor(deg)), nopt.BlockDim)
				budget += int64(2 + 2*slots + 2*min(deg, nopt.BlockDim))
			}
			launches := 0
			for _, l := range rec.Launches() {
				if l.Kernel != "block-per-vertex" {
					continue
				}
				launches++
				var lanes int64
				for _, sm := range l.SMs {
					lanes += sm.Lanes
				}
				if lanes > budget {
					t.Errorf("launch %d ran %d lanes over %d blocks, budget %d (full blocks: %d)",
						l.ID, lanes, l.Grid, budget, int64(l.Grid)*6*int64(l.BlockDim))
				}
			}
			if launches == 0 {
				t.Fatal("no block-per-vertex launch: the guard is vacuous")
			}
		})
	}
}
