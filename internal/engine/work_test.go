package engine_test

import (
	"testing"

	"nulpa/internal/engine"
	_ "nulpa/internal/engine/all"
	"nulpa/internal/telemetry"
)

// Work-accounting conformance: every registered detector must report its
// algorithmic work through the result trace — nonzero edge visits, label
// flips, and active vertices on graphs with real community structure. A new
// algorithm that forgets to count shows up here by name, and work
// attribution stays meaningful across the whole catalogue.
func TestWorkConformance(t *testing.T) {
	graphs := conformanceGraphs()
	for _, name := range detectors(t) {
		for gname, g := range graphs {
			t.Run(name+"/"+gname, func(t *testing.T) {
				det, err := engine.MustGet(name)
				if err != nil {
					t.Fatal(err)
				}
				opt := engine.DefaultOptions()
				opt.Workers = 2
				opt.Profiler = telemetry.NewRecorder()
				res, err := det.Detect(g, opt)
				if err != nil {
					t.Fatal(err)
				}
				if len(res.Trace) == 0 {
					t.Fatal("result carries no iteration trace")
				}
				work := telemetry.TotalWork(res.Trace)
				if work.EdgeVisits <= 0 {
					t.Errorf("EdgeVisits = %d, want > 0", work.EdgeVisits)
				}
				if work.LabelFlips <= 0 {
					t.Errorf("LabelFlips = %d, want > 0", work.LabelFlips)
				}
				if work.ActiveVertices <= 0 {
					t.Errorf("ActiveVertices = %d, want > 0", work.ActiveVertices)
				}
				// Edge visits are bounded below by the work of one full sweep
				// being impossible to beat with zero visits per active vertex —
				// and above by nothing; but a detector visiting fewer arcs than
				// it flipped labels is double-counting flips or undercounting
				// visits.
				if work.EdgeVisits < work.LabelFlips {
					t.Errorf("EdgeVisits (%d) < LabelFlips (%d): counters inconsistent",
						work.EdgeVisits, work.LabelFlips)
				}
			})
		}
	}
}
