package engine_test

import (
	"encoding/json"
	"math"
	"slices"
	"sort"
	"testing"

	"nulpa/internal/engine"
	_ "nulpa/internal/engine/all"
	"nulpa/internal/quality"
	"nulpa/internal/telemetry"
)

// The quality-plane conformance suite: every registered detector run with
// Options.Quality enabled must produce an end-of-run summary whose incremental
// estimate stayed within 1e-6 of the exact modularity at every sampled
// recompute, a quality record on every observed Trace entry, and a final
// summary that agrees
// with an independent exact evaluation of the returned labels. Detectors get
// this for free from the instrumented registry wrapper — a new algorithm
// joins the suite by registering and setting IterOutcome.Labels.

func TestQualityConformance(t *testing.T) {
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
				opt.Quality = engine.QualityConfig{Enabled: true, SampleEvery: 2}
				res, err := det.Detect(g, opt)
				if err != nil {
					t.Fatal(err)
				}
				q := res.Quality
				if q == nil {
					t.Fatal("Quality enabled but Result.Quality is nil")
				}
				if q.Observed <= 0 {
					t.Fatal("quality plane observed no iterations")
				}
				// The acceptance bound: at every sampled recompute the live
				// estimate is within 1e-6 of the exact value, and the summary
				// carries the worst of them.
				observed := 0
				for _, it := range res.Trace {
					rec := it.Quality
					if rec == nil {
						continue
					}
					observed++
					if rec.Iter != it.Iter {
						t.Errorf("trace iter %d carries the quality record of iter %d", it.Iter, rec.Iter)
					}
					if rec.Exact && rec.Drift > 1e-6 {
						t.Errorf("iter %d: estimator drift %v exceeds 1e-6", rec.Iter, rec.Drift)
					}
				}
				if observed != q.Observed {
					t.Errorf("Trace has %d quality records, summary observed %d",
						observed, q.Observed)
				}
				if q.MaxDrift > 1e-6 {
					t.Errorf("max estimator drift %v exceeds 1e-6", q.MaxDrift)
				}
				// The final exact recompute runs on the detector's last
				// observed labels. Overlapping-community methods (and Louvain's
				// projections) may post-process labels after the last observed
				// iteration, so compare against the tracked state only via the
				// census invariant below, and check absolute agreement for the
				// detectors whose Labels are the final state.
				if q.Communities <= 0 || q.Communities > g.NumVertices() {
					t.Errorf("census communities %d outside (0, |V|]", q.Communities)
				}
				var bucketTotal int64
				for _, b := range q.SizeBuckets {
					bucketTotal += b
				}
				if bucketTotal != int64(q.Communities) {
					t.Errorf("size buckets sum %d != communities %d", bucketTotal, q.Communities)
				}
				if q.GiantShare <= 0 || q.GiantShare > 1 {
					t.Errorf("giant share %v outside (0, 1]", q.GiantShare)
				}
			})
		}
	}
}

// TestQualityFinalMatchesResultLabels pins the strongest form of the
// contract on the ν-LPA family, whose observed labels are exactly the
// returned labels: the summary's exact modularity equals an independent
// quality.Modularity of Result.Labels.
func TestQualityFinalMatchesResultLabels(t *testing.T) {
	g := conformanceGraphs()["planted"]
	for _, name := range []string{"nulpa", "nulpa-direct", "nulpa-sharded", "plp", "gunrock", "gvelpa"} {
		t.Run(name, func(t *testing.T) {
			det, err := engine.MustGet(name)
			if err != nil {
				t.Fatal(err)
			}
			opt := engine.DefaultOptions()
			opt.Workers = 2
			opt.Quality = engine.QualityConfig{Enabled: true}
			res, err := det.Detect(g, opt)
			if err != nil {
				t.Fatal(err)
			}
			if res.Quality == nil {
				t.Fatal("Result.Quality is nil")
			}
			// Result.Labels are compressed after the loop; modularity is
			// renaming-invariant so the comparison still holds.
			exact := quality.Modularity(g, res.Labels)
			if d := math.Abs(res.Quality.Modularity - exact); d > 1e-9 {
				t.Errorf("summary modularity %v vs exact %v on returned labels (d=%v)",
					res.Quality.Modularity, exact, d)
			}
		})
	}
}

// TestQualityDisabledLeavesResultBare: the default path must not grow a
// quality summary, a trace, or an attached observer.
func TestQualityDisabledLeavesResultBare(t *testing.T) {
	g := conformanceGraphs()["planted"]
	det, err := engine.MustGet("nulpa-direct")
	if err != nil {
		t.Fatal(err)
	}
	opt := engine.DefaultOptions()
	rec := telemetry.NewRecorder()
	opt.Profiler = rec
	res, err := det.Detect(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Quality != nil {
		t.Error("quality summary populated without Quality.Enabled")
	}
	if rec.WantsQuality() {
		t.Error("recorder has a quality observer without Quality.Enabled")
	}
	for _, it := range rec.IterRecords() {
		if it.Quality != nil {
			t.Errorf("iter %d carries a quality record on a disabled run", it.Iter)
		}
	}
}

// TestQualityFinalWireKeys pins the key set of the end-of-run quality JSON
// (Result.Quality, job status "quality"). Unlike the per-iteration
// record, the flip counts are never omitted here, so even a zero summary
// carries them; churnValid appears only when set.
func TestQualityFinalWireKeys(t *testing.T) {
	want := []string{"modularity", "estimate", "drift", "maxDrift", "recomputes",
		"observed", "communities", "giantShare", "singletonRate", "entropy",
		"sizeBuckets", "flips", "flipsLow", "flipsMid", "flipsHigh", "churnNMI"}
	keys := func(q *quality.FinalStats) []string {
		b, err := json.Marshal(q)
		if err != nil {
			t.Fatal(err)
		}
		var m map[string]any
		if err := json.Unmarshal(b, &m); err != nil {
			t.Fatal(err)
		}
		var ks []string
		for k := range m {
			ks = append(ks, k)
		}
		sort.Strings(ks)
		return ks
	}
	sort.Strings(want)
	if got := keys(&quality.FinalStats{}); !slices.Equal(got, want) {
		t.Errorf("zero summary keys %v, want %v", got, want)
	}

	det, err := engine.MustGet("nulpa-direct")
	if err != nil {
		t.Fatal(err)
	}
	opt := engine.DefaultOptions()
	opt.Workers = 2
	opt.Quality = engine.QualityConfig{Enabled: true, SampleEvery: 1}
	res, err := det.Detect(conformanceGraphs()["planted"], opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Quality == nil {
		t.Fatal("Result.Quality is nil")
	}
	if !res.Quality.ChurnValid {
		t.Fatal("run sampled every iteration but reports no churn")
	}
	runWant := append(slices.Clone(want), "churnValid")
	sort.Strings(runWant)
	if got := keys(res.Quality); !slices.Equal(got, runWant) {
		t.Errorf("run summary keys %v, want %v", got, runWant)
	}
}
