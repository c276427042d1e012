package engine_test

import (
	"fmt"
	"hash/fnv"
	"testing"

	"nulpa/internal/engine"
	"nulpa/internal/gen"
	"nulpa/internal/graph"
	"nulpa/internal/hashtable"
	"nulpa/internal/metrics"
	"nulpa/internal/nulpa"
	"nulpa/internal/telemetry"
)

// Counter conservation: ν-LPA's counters are tallied per SM and folded once
// per launch, so the same counts reach
// three surfaces by different routes — the per-iteration IterRecords (whose
// sum is the run's hashtable totals), the profiler's per-kernel ledger and
// the process-wide hashtable_probe_length histogram. At 1 SM the runs are deterministic and
// every count is pinned to the value the per-accumulate atomic counters
// produced before the tallies replaced them; at 2 SMs the counts vary with
// scheduling, but the surfaces must still agree with each other exactly.

// conservationConfigs are the ν-LPA configurations the test covers: every
// kernel (thread, block, cross-check), both hashtable kinds and all three
// detectors.
func conservationConfigs() []struct {
	name, detector string
	extra          any
} {
	cc := nulpa.DefaultOptions()
	cc.CrossCheckEvery = 2
	coal := nulpa.DefaultOptions()
	coal.Coalesced = true
	return []struct {
		name, detector string
		extra          any
	}{
		{"simt", "nulpa", nil},
		{"simt-cc", "nulpa", cc},
		{"simt-coalesced", "nulpa", coal},
		{"direct", "nulpa-direct", nil},
		{"sharded", "nulpa-sharded", nil},
	}
}

// pinnedCounts is one configuration's 1-SM counter values. iters holds, per
// iteration: EdgeVisits, ActiveVertices, Moves, Reverts, DeltaN,
// HashAccumulates, HashProbes, HashCollisions, HashFallbacks; stats is their
// sum over the run, with HashFailures. hist is the
// hashtable_probe_length count and sum delta; it is nil for the coalesced
// table, which fed no histogram before the tallies. labels is the FNV-64a
// digest of the final labels (see labelDigest).
type pinnedCounts struct {
	labels  uint64
	hist    *[2]int64
	stats   hashtable.StatsSnapshot
	iters   [][9]int64
	kernels map[string]kernelWork
}

// kernelWork is the five counters pinned per kernel, projected from the
// kernel's summed launch records: a label flip is a move or a Cross-Check
// revert.
type kernelWork struct {
	EdgeVisits, LabelFlips, HashProbes, HashCollisions, ActiveVertices int64
}

func projectKernel(w telemetry.IterRecord) kernelWork {
	return kernelWork{EdgeVisits: w.EdgeVisits, LabelFlips: w.Moves + w.Reverts,
		HashProbes: w.HashProbes, HashCollisions: w.HashCollisions, ActiveVertices: w.ActiveVertices}
}

var pinnedConservation = map[string]pinnedCounts{
	"planted/simt": {
		labels: 0x9ab64c2d47ba5a80,
		hist:   &[2]int64{42215, 71530},
		stats:  hashtable.StatsSnapshot{Accumulates: 42215, Probes: 71530, Collisions: 28899, Fallbacks: 84, Failures: 0},
		iters: [][9]int64{
			{9600, 600, 298, 0, 298, 6418, 13849, 7261, 34},
			{10227, 598, 354, 0, 354, 6407, 12808, 6253, 29},
			{9667, 600, 307, 0, 307, 6418, 10747, 4252, 16},
			{8953, 596, 247, 0, 247, 6390, 9421, 3016, 4},
			{7133, 572, 90, 0, 90, 6172, 9048, 2876, 0},
			{5243, 421, 62, 0, 62, 4605, 7105, 2494, 1},
			{3915, 318, 35, 0, 35, 3562, 5215, 1653, 0},
			{2546, 206, 29, 0, 29, 2243, 3337, 1094, 0},
		},
		kernels: map[string]kernelWork{
			"thread-per-vertex": {EdgeVisits: 57284, LabelFlips: 1422, HashProbes: 71530, HashCollisions: 28899, ActiveVertices: 3911},
		},
	},
	"planted/simt-cc": {
		labels: 0xeef5a12355edd41f,
		hist:   &[2]int64{41282, 70142},
		stats:  hashtable.StatsSnapshot{Accumulates: 41282, Probes: 70142, Collisions: 28413, Fallbacks: 87, Failures: 0},
		iters: [][9]int64{
			{9600, 600, 298, 38, 260, 6418, 13849, 7261, 34},
			{10192, 598, 351, 0, 351, 6407, 12586, 6019, 30},
			{9683, 600, 308, 55, 253, 6418, 10838, 4329, 18},
			{8475, 596, 201, 0, 201, 6390, 9550, 3134, 5},
			{6854, 566, 71, 1, 70, 6105, 9039, 2934, 0},
			{4736, 377, 54, 0, 54, 4145, 6206, 2061, 0},
			{3678, 302, 30, 0, 30, 3360, 5065, 1705, 0},
			{2210, 181, 18, 0, 18, 2039, 3009, 970, 0},
		},
		kernels: map[string]kernelWork{
			"cross-check":       {EdgeVisits: 0, LabelFlips: 94, HashProbes: 0, HashCollisions: 0, ActiveVertices: 0},
			"thread-per-vertex": {EdgeVisits: 55428, LabelFlips: 1331, HashProbes: 70142, HashCollisions: 28413, ActiveVertices: 3820},
		},
	},
	"planted/simt-coalesced": {
		labels: 0x6148a6335f083b7c,
		stats:  hashtable.StatsSnapshot{Accumulates: 42974, Probes: 56574, Collisions: 13600, Fallbacks: 0, Failures: 0},
		iters: [][9]int64{
			{9625, 600, 300, 0, 300, 6418, 6902, 484, 0},
			{10234, 598, 355, 0, 355, 6407, 7096, 689, 0},
			{9811, 600, 318, 0, 318, 6418, 7974, 1556, 0},
			{8904, 596, 241, 0, 241, 6394, 8613, 2219, 0},
			{7140, 576, 88, 0, 88, 6219, 9052, 2833, 0},
			{5393, 426, 68, 0, 68, 4667, 7232, 2565, 0},
			{4400, 356, 39, 0, 39, 3960, 6035, 2075, 0},
			{2727, 221, 22, 0, 22, 2491, 3670, 1179, 0},
		},
		kernels: map[string]kernelWork{
			"thread-per-vertex": {EdgeVisits: 58234, LabelFlips: 1431, HashProbes: 56574, HashCollisions: 13600, ActiveVertices: 3973},
		},
	},
	"planted/direct": {
		labels: 0x88e49cfcfc642c59,
		hist:   &[2]int64{45550, 75143},
		stats:  hashtable.StatsSnapshot{Accumulates: 45550, Probes: 75143, Collisions: 29224, Fallbacks: 76, Failures: 0},
		iters: [][9]int64{
			{9492, 600, 289, 0, 289, 6418, 13676, 7109, 31},
			{10304, 598, 356, 0, 356, 6407, 12344, 5825, 23},
			{10007, 600, 336, 0, 336, 6418, 10570, 4079, 14},
			{9249, 598, 275, 0, 275, 6406, 9403, 2978, 4},
			{7302, 579, 97, 0, 97, 6236, 9037, 2795, 2},
			{5342, 415, 79, 0, 79, 4520, 6842, 2322, 0},
			{4650, 383, 46, 0, 46, 4203, 6349, 2141, 1},
			{2948, 239, 31, 0, 31, 2639, 3925, 1281, 1},
			{1861, 163, 6, 0, 6, 1805, 2360, 555, 0},
			{529, 43, 3, 0, 3, 498, 637, 139, 0},
		},
		kernels: map[string]kernelWork{
			"thread-per-vertex": {EdgeVisits: 61684, LabelFlips: 1518, HashProbes: 75143, HashCollisions: 29224, ActiveVertices: 4218},
		},
	},
	"planted/sharded": {
		labels: 0x2618eb2e65080151,
		hist:   &[2]int64{42372, 68035},
		stats:  hashtable.StatsSnapshot{Accumulates: 42372, Probes: 68035, Collisions: 25225, Fallbacks: 90, Failures: 0},
		iters: [][9]int64{
			{9504, 600, 289, 0, 289, 6418, 13885, 7280, 36},
			{10317, 598, 357, 0, 357, 6409, 12193, 5655, 27},
			{10025, 600, 337, 0, 337, 6418, 10203, 3718, 14},
			{8081, 598, 155, 0, 155, 6409, 9467, 3018, 9},
			{7322, 548, 132, 0, 132, 5953, 8298, 2330, 4},
			{5898, 472, 75, 0, 75, 5125, 6697, 1572, 0},
			{4177, 360, 21, 0, 21, 3962, 5140, 1178, 0},
			{1801, 144, 11, 0, 11, 1678, 2152, 474, 0},
		},
		kernels: map[string]kernelWork{
			"thread-per-vertex": {EdgeVisits: 57125, LabelFlips: 1377, HashProbes: 68035, HashCollisions: 25225, ActiveVertices: 3920},
		},
	},
	"web/simt": {
		labels: 0x5a9e75e510c92092,
		hist:   &[2]int64{29680, 38327},
		stats:  hashtable.StatsSnapshot{Accumulates: 29680, Probes: 38327, Collisions: 8535, Fallbacks: 24, Failures: 0},
		iters: [][9]int64{
			{7548, 500, 343, 0, 343, 4746, 9382, 4567, 14},
			{6590, 490, 209, 0, 209, 4722, 6763, 1998, 10},
			{5640, 464, 114, 0, 114, 4623, 5190, 567, 0},
			{4863, 387, 81, 0, 81, 4069, 4502, 433, 0},
			{3990, 334, 35, 0, 35, 3658, 4082, 424, 0},
			{2549, 196, 28, 0, 28, 2267, 2466, 199, 0},
			{2252, 178, 30, 0, 30, 1976, 2111, 135, 0},
			{1904, 155, 27, 0, 27, 1698, 1797, 99, 0},
			{1375, 116, 9, 0, 9, 1288, 1347, 59, 0},
			{685, 58, 7, 0, 7, 633, 687, 54, 0},
		},
		kernels: map[string]kernelWork{
			"block-per-vertex":  {EdgeVisits: 1541, LabelFlips: 1, HashProbes: 1602, HashCollisions: 95, ActiveVertices: 38},
			"thread-per-vertex": {EdgeVisits: 35855, LabelFlips: 882, HashProbes: 36725, HashCollisions: 8440, ActiveVertices: 2840},
		},
	},
	"web/simt-cc": {
		labels: 0x5a9e75e510c92092,
		hist:   &[2]int64{29273, 37702},
		stats:  hashtable.StatsSnapshot{Accumulates: 29273, Probes: 37702, Collisions: 8340, Fallbacks: 19, Failures: 0},
		iters: [][9]int64{
			{7548, 500, 343, 51, 292, 4746, 9382, 4567, 14},
			{6545, 490, 205, 0, 205, 4722, 6586, 1844, 5},
			{5568, 461, 108, 4, 104, 4606, 5174, 568, 0},
			{4726, 381, 73, 0, 73, 4025, 4458, 433, 0},
			{3671, 308, 35, 1, 34, 3344, 3738, 394, 0},
			{2579, 196, 28, 0, 28, 2298, 2485, 187, 0},
			{2127, 161, 31, 0, 31, 1837, 1955, 118, 0},
			{1830, 153, 28, 0, 28, 1619, 1717, 98, 0},
			{1424, 116, 9, 0, 9, 1341, 1407, 66, 0},
			{810, 61, 9, 0, 9, 735, 800, 65, 0},
		},
		kernels: map[string]kernelWork{
			"block-per-vertex":  {EdgeVisits: 1477, LabelFlips: 1, HashProbes: 1531, HashCollisions: 88, ActiveVertices: 36},
			"cross-check":       {EdgeVisits: 0, LabelFlips: 56, HashProbes: 0, HashCollisions: 0, ActiveVertices: 0},
			"thread-per-vertex": {EdgeVisits: 35351, LabelFlips: 868, HashProbes: 36171, HashCollisions: 8252, ActiveVertices: 2791},
		},
	},
	"web/simt-coalesced": {
		labels: 0x5a9e75e510c92092,
		stats:  hashtable.StatsSnapshot{Accumulates: 29468, Probes: 30639, Collisions: 1171, Fallbacks: 0, Failures: 0},
		iters: [][9]int64{
			{7575, 500, 345, 0, 345, 4746, 4982, 236, 0},
			{6602, 490, 210, 0, 210, 4722, 4913, 191, 0},
			{5590, 463, 111, 0, 111, 4611, 4760, 149, 0},
			{4792, 380, 79, 0, 79, 4023, 4182, 159, 0},
			{3802, 316, 37, 0, 37, 3447, 3597, 150, 0},
			{2622, 201, 29, 0, 29, 2332, 2422, 90, 0},
			{2302, 184, 29, 0, 29, 2034, 2106, 72, 0},
			{1863, 150, 26, 0, 26, 1665, 1721, 56, 0},
			{1342, 111, 9, 0, 9, 1255, 1286, 31, 0},
			{685, 58, 7, 0, 7, 633, 670, 37, 0},
		},
		kernels: map[string]kernelWork{
			"block-per-vertex":  {EdgeVisits: 1578, LabelFlips: 1, HashProbes: 1606, HashCollisions: 62, ActiveVertices: 39},
			"thread-per-vertex": {EdgeVisits: 35597, LabelFlips: 881, HashProbes: 29033, HashCollisions: 1109, ActiveVertices: 2814},
		},
	},
	"web/direct": {
		labels: 0x569187478354a7c,
		hist:   &[2]int64{27850, 36554},
		stats:  hashtable.StatsSnapshot{Accumulates: 27850, Probes: 36554, Collisions: 8581, Fallbacks: 26, Failures: 0},
		iters: [][9]int64{
			{7546, 500, 342, 0, 342, 4746, 9546, 4720, 16},
			{6602, 492, 210, 0, 210, 4728, 6841, 2070, 10},
			{5667, 464, 115, 0, 115, 4623, 5194, 571, 0},
			{4833, 382, 80, 0, 80, 4052, 4466, 414, 0},
			{4074, 338, 39, 0, 39, 3709, 4094, 385, 0},
			{2829, 214, 27, 0, 27, 2570, 2767, 197, 0},
			{2101, 167, 25, 0, 25, 1880, 1999, 119, 0},
			{1707, 137, 23, 0, 23, 1542, 1647, 105, 0},
		},
		kernels: map[string]kernelWork{
			"thread-per-vertex": {EdgeVisits: 35359, LabelFlips: 861, HashProbes: 36554, HashCollisions: 8581, ActiveVertices: 2694},
		},
	},
	"web/sharded": {
		labels: 0x48daa0bc37f6031b,
		hist:   &[2]int64{27596, 36102},
		stats:  hashtable.StatsSnapshot{Accumulates: 27596, Probes: 36102, Collisions: 8382, Fallbacks: 27, Failures: 0},
		iters: [][9]int64{
			{7550, 500, 343, 0, 343, 4746, 9328, 4501, 17},
			{6563, 492, 207, 0, 207, 4728, 6747, 1976, 10},
			{5603, 464, 108, 0, 108, 4616, 5333, 717, 0},
			{4439, 382, 41, 0, 41, 4058, 4561, 503, 0},
			{3147, 232, 37, 0, 37, 2750, 3045, 295, 0},
			{3195, 249, 41, 0, 41, 2830, 3015, 185, 0},
			{2595, 211, 23, 0, 23, 2397, 2528, 131, 0},
			{1565, 124, 12, 0, 12, 1471, 1545, 74, 0},
		},
		kernels: map[string]kernelWork{
			"block-per-vertex":  {EdgeVisits: 1734, LabelFlips: 1, HashProbes: 1749, HashCollisions: 49, ActiveVertices: 43},
			"thread-per-vertex": {EdgeVisits: 32923, LabelFlips: 811, HashProbes: 34353, HashCollisions: 8333, ActiveVertices: 2611},
		},
	},
}

// labelDigest is the FNV-64a hash of the labels written as "l0,l1,...,".
func labelDigest(labels []uint32) uint64 {
	h := fnv.New64a()
	for _, l := range labels {
		fmt.Fprintf(h, "%d,", l)
	}
	return h.Sum64()
}

// conservationRun is one profiled detection with everything the surfaces
// reported.
type conservationRun struct {
	res     *nulpa.Result
	kernels map[string]telemetry.IterRecord // summed launch records, by kernel
	hist    [2]int64                        // hashtable_probe_length count and sum delta
}

func detectConserved(t *testing.T, name string, extra any, gname string, workers int) conservationRun {
	t.Helper()
	det, err := engine.MustGet(name)
	if err != nil {
		t.Fatal(err)
	}
	g := conformanceGraphs()[gname]
	opt := engine.DefaultOptions()
	opt.Workers = workers
	rec := telemetry.NewRecorder()
	opt.Profiler = rec
	opt.Extra = extra
	h := metrics.Default().Histogram("hashtable_probe_length", "", nil)
	c0, s0 := h.Count(), h.Sum()
	res, err := det.Detect(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	checkPartition(t, g, res)
	kernels := map[string]telemetry.IterRecord{}
	for _, k := range rec.KernelSummaries() {
		kernels[k.Kernel] = k.Work
	}
	return conservationRun{
		res:     res.Extra.(*nulpa.Result),
		kernels: kernels,
		hist:    [2]int64{h.Count() - c0, int64(h.Sum() - s0)},
	}
}

// hashStats is the run's hashtable totals: the Hash* counters of its
// IterRecords, summed.
func hashStats(r conservationRun) hashtable.StatsSnapshot {
	sum := telemetry.Sum(r.res.Trace)
	return hashtable.StatsSnapshot{Accumulates: sum.HashAccumulates, Probes: sum.HashProbes,
		Collisions: sum.HashCollisions, Fallbacks: sum.HashFallbacks, Failures: sum.HashFailures}
}

// checkSurfacesAgree asserts the cross-surface identities: the per-kernel
// launch records sum to the IterRecords on every counter a kernel tallies,
// and the histogram counts one observation of each successful accumulate's
// probe length.
func checkSurfacesAgree(t *testing.T, r conservationRun) {
	t.Helper()
	st := hashStats(r)
	if r.hist != [2]int64{st.Accumulates - st.Failures, st.Probes} {
		t.Errorf("histogram count/sum delta %v, want Accumulates−Failures %d / Probes %d",
			r.hist, st.Accumulates-st.Failures, st.Probes)
	}
	var kernels telemetry.IterRecord
	for _, w := range r.kernels {
		kernels = kernels.Add(w)
	}
	counts := func(r telemetry.IterRecord) [9]int64 {
		return [9]int64{r.Moves, r.Reverts, r.EdgeVisits, r.ActiveVertices, r.HashAccumulates,
			r.HashProbes, r.HashCollisions, r.HashFallbacks, r.HashFailures}
	}
	if k, i := counts(kernels), counts(telemetry.Sum(r.res.Trace)); k != i {
		t.Errorf("Σ per-kernel records %v, Σ IterRecord %v (moves, reverts, edges, active, hash accumulates, probes, collisions, fallbacks, failures)", k, i)
	}
}

// TestCounterConservationPinned runs every configuration at 1 SM and
// requires every counter, the histogram deltas and the labels to equal their
// pinned values exactly.
func TestCounterConservationPinned(t *testing.T) {
	for _, gname := range []string{"planted", "web"} {
		for _, c := range conservationConfigs() {
			key := gname + "/" + c.name
			t.Run(key, func(t *testing.T) {
				want, ok := pinnedConservation[key]
				if !ok {
					t.Fatalf("no pinned counts for %s", key)
				}
				r := detectConserved(t, c.detector, c.extra, gname, 1)
				if got := labelDigest(r.res.Labels); got != want.labels {
					t.Errorf("labels digest %#x, want %#x", got, want.labels)
				}
				if got := hashStats(r); got != want.stats {
					t.Errorf("Σ IterRecord hashtable counts %+v, want %+v", got, want.stats)
				}
				if want.hist != nil && r.hist != *want.hist {
					t.Errorf("histogram count/sum delta %v, want %v", r.hist, *want.hist)
				}
				if len(r.res.Trace) != len(want.iters) {
					t.Fatalf("%d iterations, want %d", len(r.res.Trace), len(want.iters))
				}
				for i, rec := range r.res.Trace {
					got := [9]int64{rec.EdgeVisits, rec.ActiveVertices, rec.Moves, rec.Reverts, rec.DeltaN,
						rec.HashAccumulates, rec.HashProbes, rec.HashCollisions, rec.HashFallbacks}
					if got != want.iters[i] {
						t.Errorf("iteration %d: %v, want %v", i+1, got, want.iters[i])
					}
				}
				if len(r.kernels) != len(want.kernels) {
					t.Errorf("ledger kernels %v, want %v", r.kernels, want.kernels)
				}
				for k, w := range want.kernels {
					if got := projectKernel(r.kernels[k]); got != w {
						t.Errorf("ledger %q = %+v, want %+v", k, got, w)
					}
				}
				checkSurfacesAgree(t, r)
			})
		}
	}
}

// TestDirectMultiBlockParityPinned pins nulpa-direct at 1 SM on graphs of
// many 1024-vertex blocks (the conformance graphs fit in one), with no
// isolated vertices: the labels must equal those of the chunked multicore
// loop the direct configuration replaced, which visited 1024-vertex chunks
// in order, picking for every vertex of a chunk before moving any.
func TestDirectMultiBlockParityPinned(t *testing.T) {
	social, _ := gen.Social(gen.DefaultSocial(8192, 16, 5))
	for _, c := range []struct {
		name string
		g    *graph.CSR
		want uint64
	}{
		{"web-20k", gen.Web(gen.DefaultWeb(20000, 8, 7)), 0x3ecabdf3c39a8b1c},
		{"social-8k", social, 0x6c49e6d9b8a656c9},
	} {
		t.Run(c.name, func(t *testing.T) {
			det, err := engine.MustGet("nulpa-direct")
			if err != nil {
				t.Fatal(err)
			}
			opt := engine.DefaultOptions()
			opt.Workers = 1
			res, err := det.Detect(c.g, opt)
			if err != nil {
				t.Fatal(err)
			}
			if got := labelDigest(res.Labels); got != c.want {
				t.Errorf("labels digest %#x, want %#x", got, c.want)
			}
		})
	}
}

// TestCounterConservationTwoSMs runs every configuration on 2 SMs, where SM
// tallies really are folded from more than one goroutine, and checks that
// the surfaces still agree exactly.
func TestCounterConservationTwoSMs(t *testing.T) {
	for _, gname := range []string{"planted", "web"} {
		for _, c := range conservationConfigs() {
			t.Run(gname+"/"+c.name, func(t *testing.T) {
				checkSurfacesAgree(t, detectConserved(t, c.detector, c.extra, gname, 2))
			})
		}
	}
}
