package nulpa

import (
	"context"
	"errors"
	"runtime"
	"testing"

	"nulpa/internal/gen"
	"nulpa/internal/graph"
	"nulpa/internal/hashtable"
	"nulpa/internal/quality"
	"nulpa/internal/simt"
	"nulpa/internal/telemetry"
)

func detect(t *testing.T, g *graph.CSR, opt Options) *Result {
	t.Helper()
	res, err := Detect(g, opt)
	if err != nil {
		t.Fatalf("Detect: %v", err)
	}
	return res
}

func checkLabelsValid(t *testing.T, g *graph.CSR, labels []uint32) {
	t.Helper()
	if len(labels) != g.NumVertices() {
		t.Fatalf("got %d labels for %d vertices", len(labels), g.NumVertices())
	}
	for i, c := range labels {
		if int(c) >= g.NumVertices() {
			t.Fatalf("labels[%d] = %d out of range", i, c)
		}
	}
}

// configs names the two presets the configuration-neutral tests run under: the
// paper's default launch shape and the direct configuration.
func configs() map[string]Options {
	return map[string]Options{"default": DefaultOptions(), "direct": DirectOptions()}
}

func TestDetectPlantedRecovery(t *testing.T) {
	g, truth := gen.Planted(gen.PlantedConfig{N: 400, Communities: 8, DegIn: 14, DegOut: 0.5, Seed: 3})
	for name, opt := range configs() {
		res := detect(t, g, opt)
		checkLabelsValid(t, g, res.Labels)
		if nmi := quality.NMI(res.Labels, truth); nmi < 0.85 {
			t.Errorf("%s: NMI = %.3f, want >= 0.85", name, nmi)
		}
		if q := quality.Modularity(g, res.Labels); q < 0.5 {
			t.Errorf("%s: Q = %.3f, want >= 0.5", name, q)
		}
		if !res.Converged {
			t.Errorf("%s: did not converge in %d iterations", name, res.Iterations)
		}
	}
}

// TestSwapPathologyWithoutMitigation reproduces the paper's core
// observation: on lockstep hardware, plain asynchronous LPA livelocks on
// symmetric structures — every pair of matched vertices exchanges labels
// forever and the run burns all 20 iterations.
func TestSwapPathologyWithoutMitigation(t *testing.T) {
	g := gen.MatchedPairs(512)
	opt := DefaultOptions()
	opt.PickLessEvery = 0 // no mitigation
	opt.Device = simt.NewDevice(1)
	res := detect(t, g, opt)
	if res.Converged {
		t.Fatalf("plain lockstep LPA converged on matched pairs in %d iterations; swaps should prevent it", res.Iterations)
	}
	if res.Iterations != opt.MaxIterations {
		t.Errorf("iterations = %d, want %d", res.Iterations, opt.MaxIterations)
	}
}

// TestPickLessBreaksSwaps shows PL4 fixes the livelock and merges each pair.
func TestPickLessBreaksSwaps(t *testing.T) {
	g := gen.MatchedPairs(512)
	opt := DefaultOptions() // PL4
	opt.Device = simt.NewDevice(1)
	res := detect(t, g, opt)
	if !res.Converged {
		t.Fatalf("PL4 did not converge on matched pairs (%d iterations)", res.Iterations)
	}
	// Each pair must share a label: the lower vertex id.
	for v := 0; v+1 < 512; v += 2 {
		if res.Labels[v] != res.Labels[v+1] {
			t.Fatalf("pair (%d,%d) not merged: labels %d/%d", v, v+1, res.Labels[v], res.Labels[v+1])
		}
	}
	if n := quality.CountCommunities(res.Labels); n != 256 {
		t.Errorf("communities = %d, want 256", n)
	}
}

// TestCrossCheckBreaksSwaps shows the CC method also resolves the livelock.
func TestCrossCheckBreaksSwaps(t *testing.T) {
	g := gen.MatchedPairs(512)
	opt := DefaultOptions()
	opt.PickLessEvery = 0
	opt.CrossCheckEvery = 1
	opt.Device = simt.NewDevice(1)
	res := detect(t, g, opt)
	if !res.Converged {
		t.Fatalf("CC1 did not converge on matched pairs (%d iterations)", res.Iterations)
	}
	if telemetry.Sum(res.Trace).Reverts == 0 {
		t.Error("CC converged without any reverts — test is not exercising the revert path")
	}
	for v := 0; v+1 < 512; v += 2 {
		if res.Labels[v] != res.Labels[v+1] {
			t.Fatalf("pair (%d,%d) not merged", v, v+1)
		}
	}
}

func TestCompleteBipartiteSwap(t *testing.T) {
	// K(16,16): the two sides are perfectly symmetric; without mitigation
	// the sides adopt each other's dominant label in lockstep and oscillate.
	g := gen.CompleteBipartite(16, 16)
	noMit := DefaultOptions()
	noMit.PickLessEvery = 0
	noMit.Device = simt.NewDevice(1)
	r1 := detect(t, g, noMit)
	if r1.Converged {
		t.Log("note: unmitigated run converged (possible on some schedules)")
	}
	withPL := DefaultOptions()
	withPL.Device = simt.NewDevice(1)
	r2 := detect(t, g, withPL)
	if !r2.Converged {
		t.Fatalf("PL4 did not converge on K(16,16)")
	}
	// All vertices end in one community (label 0, the global minimum).
	for v, c := range r2.Labels {
		if c != 0 {
			t.Fatalf("vertex %d has label %d, want 0", v, c)
		}
	}
}

func TestPickLessEveryIterationMonotone(t *testing.T) {
	// With PL every iteration, every move strictly decreases a vertex's
	// label, so the final label can never exceed the vertex id.
	g := gen.ErdosRenyi(300, 1200, 7)
	opt := DefaultOptions()
	opt.PickLessEvery = 1
	res := detect(t, g, opt)
	for v, c := range res.Labels {
		if c > uint32(v) {
			t.Fatalf("vertex %d ended with label %d > own id under permanent Pick-Less", v, c)
		}
	}
}

func TestIsolatedVerticesKeepOwnLabel(t *testing.T) {
	g, err := graph.FromEdges([]graph.Edge{{U: 0, V: 1, W: 1}}, 5, graph.DefaultBuildOptions())
	if err != nil {
		t.Fatal(err)
	}
	res := detect(t, g, DefaultOptions())
	for v := 2; v < 5; v++ {
		if res.Labels[v] != uint32(v) {
			t.Errorf("isolated vertex %d got label %d", v, res.Labels[v])
		}
	}
	if res.Labels[0] != res.Labels[1] {
		t.Error("connected pair not merged")
	}
}

func TestSwitchDegreeExtremes(t *testing.T) {
	g, truth := gen.Planted(gen.PlantedConfig{N: 300, Communities: 6, DegIn: 12, DegOut: 0.5, Seed: 5})
	for _, sd := range []int{0, 1, 8, 32, 1 << 20} {
		opt := DefaultOptions()
		opt.SwitchDegree = sd
		res := detect(t, g, opt)
		checkLabelsValid(t, g, res.Labels)
		// LPA's local optimum shifts with processing order, so mixed-kernel
		// splits legitimately land on merged communities for some seeds;
		// require a sane recovery, not a perfect one.
		if nmi := quality.NMI(res.Labels, truth); nmi < 0.6 {
			t.Errorf("switchDegree=%d: NMI = %.3f", sd, nmi)
		}
		if !res.Converged {
			t.Errorf("switchDegree=%d: did not converge", sd)
		}
	}
}

func TestAllProbingStrategies(t *testing.T) {
	g, truth := gen.Planted(gen.PlantedConfig{N: 300, Communities: 6, DegIn: 12, DegOut: 0.5, Seed: 6})
	for _, pr := range []hashtable.Probing{hashtable.Linear, hashtable.Quadratic, hashtable.Double, hashtable.QuadraticDouble} {
		opt := DefaultOptions()
		opt.Probing = pr
		res := detect(t, g, opt)
		if nmi := quality.NMI(res.Labels, truth); nmi < 0.8 {
			t.Errorf("probing=%v: NMI = %.3f", pr, nmi)
		}
	}
}

func TestValueKinds(t *testing.T) {
	g, truth := gen.Planted(gen.PlantedConfig{N: 300, Communities: 6, DegIn: 12, DegOut: 0.5, Seed: 8})
	for _, vk := range []hashtable.ValueKind{hashtable.Float32, hashtable.Float64} {
		opt := DefaultOptions()
		opt.ValueKind = vk
		res := detect(t, g, opt)
		if nmi := quality.NMI(res.Labels, truth); nmi < 0.8 {
			t.Errorf("kind=%v: NMI = %.3f", vk, nmi)
		}
	}
}

func TestCoalescedTableVariant(t *testing.T) {
	g, truth := gen.Planted(gen.PlantedConfig{N: 300, Communities: 6, DegIn: 12, DegOut: 0.5, Seed: 9})
	opt := DefaultOptions()
	opt.Coalesced = true
	res := detect(t, g, opt)
	if nmi := quality.NMI(res.Labels, truth); nmi < 0.8 {
		t.Errorf("coalesced: NMI = %.3f", nmi)
	}
}

func TestHybridMethod(t *testing.T) {
	g := gen.MatchedPairs(256)
	opt := DefaultOptions()
	opt.PickLessEvery = 2
	opt.CrossCheckEvery = 3
	opt.Device = simt.NewDevice(1)
	res := detect(t, g, opt)
	if !res.Converged {
		t.Fatalf("hybrid did not converge")
	}
	for v := 0; v+1 < 256; v += 2 {
		if res.Labels[v] != res.Labels[v+1] {
			t.Fatalf("pair (%d,%d) not merged", v, v+1)
		}
	}
}

func TestDeviceOOM(t *testing.T) {
	g := gen.ErdosRenyi(20000, 100000, 1)
	opt := DefaultOptions()
	opt.Device = simt.NewDevice(2)
	fits := detect(t, g, opt)
	// One byte short of the run's estimate: the reservation fails before
	// the run allocates its hashtable arena, so the refused attempt
	// allocates far less than the arena alone would take.
	opt.Device.MemBudget = fits.DeviceBytes - 1
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Detect(g, opt)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("expected out-of-memory error")
	}
	if grew, arena := after.TotalAlloc-before.TotalAlloc, hashtable.ArenaBytes(opt.ValueKind, 2*g.NumArcs()); grew >= uint64(arena) {
		t.Errorf("refused run allocated %d bytes, the arena is %d: allocation preceded the reservation", grew, arena)
	}
	// Detect must wrap, not flatten, the device error so callers can
	// distinguish OOM from other failures.
	if !errors.Is(err, simt.ErrOutOfMemory) {
		t.Errorf("Detect error %v does not unwrap to simt.ErrOutOfMemory", err)
	}
	// Budget must be fully released after the failed attempt.
	if used := opt.Device.MemUsed(); used != 0 {
		t.Errorf("device leaked %d bytes", used)
	}
}

func TestDeviceMemoryReleased(t *testing.T) {
	g := gen.ErdosRenyi(500, 2000, 2)
	opt := DefaultOptions()
	opt.Device = simt.NewDevice(2)
	res := detect(t, g, opt)
	if res.DeviceBytes == 0 {
		t.Error("run reserved no device memory")
	}
	if used := opt.Device.MemUsed(); used != 0 {
		t.Errorf("device holds %d bytes after run", used)
	}
}

func TestOptionValidation(t *testing.T) {
	g := gen.Cycle(8)
	bad := []Options{
		{MaxIterations: 0, Tolerance: 0.05},
		{MaxIterations: 10, Tolerance: -0.1},
		{MaxIterations: 10, Tolerance: 1.5},
		{MaxIterations: 10, Tolerance: 0.05, PickLessEvery: -1},
		{MaxIterations: 10, Tolerance: 0.05, SwitchDegree: -2},
	}
	for i, opt := range bad {
		if _, err := Detect(g, opt); err == nil {
			t.Errorf("case %d: invalid options accepted", i)
		}
	}
}

func TestDeterministicOnSingleSM(t *testing.T) {
	g := gen.Web(gen.DefaultWeb(600, 6, 4))
	run := func() []uint32 {
		opt := DefaultOptions()
		opt.Device = simt.NewDevice(1)
		return detect(t, g, opt).Labels
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic on 1 SM at vertex %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestTrackStats(t *testing.T) {
	g := gen.ErdosRenyi(400, 2400, 3)
	opt := DefaultOptions()
	opt.Profiler = telemetry.NewRecorder()
	sum := telemetry.Sum(detect(t, g, opt).Trace)
	if sum.HashAccumulates == 0 {
		t.Error("a profiled run produced no accounting")
	}
	if sum.HashProbes < sum.HashAccumulates {
		t.Error("fewer probes than accumulates")
	}
}

func TestDeltaHistoryShape(t *testing.T) {
	g, _ := gen.Planted(gen.PlantedConfig{N: 200, Communities: 4, DegIn: 10, DegOut: 0.5, Seed: 12})
	res := detect(t, g, DefaultOptions())
	if len(res.Trace) != res.Iterations {
		t.Fatalf("history length %d != iterations %d", len(res.Trace), res.Iterations)
	}
}

func TestEmptyAndTinyGraphs(t *testing.T) {
	empty, _ := graph.FromEdges(nil, 0, graph.DefaultBuildOptions())
	res := detect(t, empty, DefaultOptions())
	if len(res.Labels) != 0 {
		t.Errorf("empty graph produced %d labels", len(res.Labels))
	}
	single, _ := graph.FromEdges(nil, 1, graph.DefaultBuildOptions())
	res = detect(t, single, DefaultOptions())
	if len(res.Labels) != 1 || res.Labels[0] != 0 {
		t.Errorf("single vertex labels = %v", res.Labels)
	}
	pair, _ := graph.FromEdges([]graph.Edge{{U: 0, V: 1, W: 1}}, 2, graph.DefaultBuildOptions())
	res = detect(t, pair, DefaultOptions())
	if res.Labels[0] != res.Labels[1] {
		t.Errorf("pair labels = %v, want merged", res.Labels)
	}
}

func TestDirectBackendMatchesSIMTQuality(t *testing.T) {
	g := gen.Web(gen.DefaultWeb(2000, 8, 21))
	optS := DefaultOptions()
	optS.Device = simt.NewDevice(4)
	rs := detect(t, g, optS)
	rd := detect(t, g, DirectOptions())
	qs := quality.Modularity(g, rs.Labels)
	qd := quality.Modularity(g, rd.Labels)
	if qs < 0.2 || qd < 0.2 {
		t.Errorf("low modularity: simt=%.3f direct=%.3f", qs, qd)
	}
	if diff := qs - qd; diff > 0.15 || diff < -0.15 {
		t.Errorf("configurations disagree on quality: simt=%.3f direct=%.3f", qs, qd)
	}
}

// TestPartitionByDegreeExactLists checks the degree split against a direct
// filter: same vertices in the same order, each list allocated at exactly
// its length, isolated vertices and rows at or past limit left out.
func TestPartitionByDegreeExactLists(t *testing.T) {
	g := gen.Web(gen.DefaultWeb(3000, 8, 3))
	edges := []graph.Edge{{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 1}}
	withIsolated, err := graph.FromEdges(edges, 6, graph.DefaultBuildOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		g         *graph.CSR
		sw, limit int
	}{{g, 32, g.NumVertices()}, {g, 0, 2000}, {g, 1 << 30, 100}, {withIsolated, 2, 6}} {
		low, high := partitionByDegree(c.g, c.sw, c.limit)
		var wantLow, wantHigh []graph.Vertex
		for v := 0; v < min(c.limit, c.g.NumVertices()); v++ {
			switch d := c.g.Degree(graph.Vertex(v)); {
			case d == 0:
			case d < c.sw:
				wantLow = append(wantLow, graph.Vertex(v))
			default:
				wantHigh = append(wantHigh, graph.Vertex(v))
			}
		}
		for _, l := range []struct {
			name      string
			got, want []graph.Vertex
		}{{"low", low, wantLow}, {"high", high, wantHigh}} {
			if len(l.got) != len(l.want) || cap(l.got) != len(l.want) {
				t.Fatalf("switch %d limit %d: %s list len %d cap %d, want %d", c.sw, c.limit, l.name, len(l.got), cap(l.got), len(l.want))
			}
			for i := range l.got {
				if l.got[i] != l.want[i] {
					t.Fatalf("switch %d limit %d: %s[%d] = %d, want %d", c.sw, c.limit, l.name, i, l.got[i], l.want[i])
				}
			}
		}
	}
}

func TestStarGraphBlockKernel(t *testing.T) {
	// Star with 4096 leaves: hub degree far above any block size, so the
	// strided accumulate and neighbour wake-up paths get real coverage.
	g := gen.Star(4097)
	opt := DefaultOptions()
	res := detect(t, g, opt)
	checkLabelsValid(t, g, res.Labels)
	if n := quality.CountCommunities(res.Labels); n != 1 {
		t.Errorf("star split into %d communities, want 1", n)
	}
}

func TestSelfLoopsIgnored(t *testing.T) {
	opts := graph.BuildOptions{Symmetrize: true, DropSelfLoops: false, SumDuplicates: true}
	g, err := graph.FromEdges([]graph.Edge{{U: 0, V: 0, W: 50}, {U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 1}}, 3, opts)
	if err != nil {
		t.Fatal(err)
	}
	res := detect(t, g, DefaultOptions())
	// The heavy self loop must not pin vertex 0 to itself.
	if res.Labels[0] != res.Labels[1] {
		t.Errorf("self loop affected propagation: labels=%v", res.Labels)
	}
}

func TestDisablePruningSameQuality(t *testing.T) {
	g, truth := gen.Planted(gen.PlantedConfig{N: 400, Communities: 8, DegIn: 14, DegOut: 0.5, Seed: 17})
	for name, opt := range configs() {
		opt.DisablePruning = true
		res := detect(t, g, opt)
		if !res.Converged {
			t.Errorf("%s: no-pruning run did not converge", name)
		}
		if nmi := quality.NMI(res.Labels, truth); nmi < 0.85 {
			t.Errorf("%s: no-pruning NMI = %.3f", name, nmi)
		}
	}
}

func TestPruningReducesWork(t *testing.T) {
	g, _ := gen.Planted(gen.PlantedConfig{N: 2000, Communities: 20, DegIn: 10, DegOut: 0.5, Seed: 18})
	run := func(disable bool) int64 {
		opt := DefaultOptions()
		opt.DisablePruning = disable
		opt.Profiler = telemetry.NewRecorder()
		return telemetry.Sum(detect(t, g, opt).Trace).HashAccumulates
	}
	withPruning := run(false)
	without := run(true)
	if withPruning >= without {
		t.Errorf("pruning did not reduce hashtable work: %d vs %d accumulates", withPruning, without)
	}
}

func TestIterationTrace(t *testing.T) {
	g, _ := gen.Planted(gen.PlantedConfig{N: 300, Communities: 6, DegIn: 12, DegOut: 0.5, Seed: 19})
	for name, opt := range configs() {
		opt.CrossCheckEvery = 2
		res := detect(t, g, opt)
		if len(res.Trace) != res.Iterations {
			t.Fatalf("%s: trace length %d != iterations %d", name, len(res.Trace), res.Iterations)
		}
		// Iteration 0 has Pick-Less (PL4) and Cross-Check (CC2) active.
		if !res.Trace[0].PickLess || !res.Trace[0].CrossCheck {
			t.Errorf("%s: iteration 0 flags = %+v", name, res.Trace[0])
		}
		if res.Iterations > 1 && res.Trace[1].PickLess {
			t.Errorf("%s: iteration 1 should not be pick-less", name)
		}
		for _, it := range res.Trace {
			if it.Duration <= 0 {
				t.Errorf("%s: non-positive iteration duration", name)
			}
		}
	}
}

func TestMultiSMCrossCheck(t *testing.T) {
	// Cross-Check with several SMs racing: the livelock must still break
	// even when swapped pairs land on different SMs.
	g := gen.MatchedPairs(1024)
	opt := DefaultOptions()
	opt.PickLessEvery = 0
	opt.CrossCheckEvery = 1
	opt.Device = simt.NewDevice(8)
	res := detect(t, g, opt)
	if !res.Converged {
		t.Fatalf("CC1 on 8 SMs did not converge (%d iterations)", res.Iterations)
	}
	for v := 0; v+1 < 1024; v += 2 {
		if res.Labels[v] != res.Labels[v+1] {
			t.Fatalf("pair (%d,%d) not merged", v, v+1)
		}
	}
}

func TestSingleIterationBudget(t *testing.T) {
	g, _ := gen.Planted(gen.PlantedConfig{N: 200, Communities: 4, DegIn: 10, DegOut: 0.5, Seed: 23})
	opt := DefaultOptions()
	opt.MaxIterations = 1
	res := detect(t, g, opt)
	if res.Iterations != 1 {
		t.Fatalf("iterations = %d", res.Iterations)
	}
	checkLabelsValid(t, g, res.Labels)
}

func TestTinyBlockDim(t *testing.T) {
	g := gen.Star(600) // hub degree 599 >> blockDim
	opt := DefaultOptions()
	opt.BlockDim = 32
	res := detect(t, g, opt)
	if n := quality.CountCommunities(res.Labels); n != 1 {
		t.Errorf("star with blockDim 32 split into %d communities", n)
	}
}

func TestWeightedPickLess(t *testing.T) {
	// Vertex 2 ties between communities {0,1} except for edge weights:
	// the heavier side must win even under Pick-Less.
	edges := []graph.Edge{
		{U: 0, V: 2, W: 1},
		{U: 1, V: 2, W: 5},
		{U: 0, V: 3, W: 3}, {U: 3, V: 4, W: 3}, // pad community 0
		{U: 1, V: 5, W: 3}, {U: 5, V: 6, W: 3}, // pad community 1
	}
	g, err := graph.FromEdges(edges, 7, graph.DefaultBuildOptions())
	if err != nil {
		t.Fatal(err)
	}
	res := detect(t, g, DefaultOptions())
	if res.Labels[2] != res.Labels[1] {
		t.Errorf("vertex 2 ignored the weight-5 edge: labels=%v", res.Labels)
	}
}

// TestProfiledFoldAllocatesNothing pins the per-launch fold of a profiled
// run — per-SM hashtable tallies into the iteration's sums and the probe-length
// histogram, flips into deltaN, edge visits into the launch's ledger — to
// zero allocations, so the cost of counting stays a few plain adds per lane
// and a fixed fold per launch.
func TestProfiledFoldAllocatesNothing(t *testing.T) {
	g := gen.ErdosRenyi(200, 1200, 5)
	opt := DefaultOptions()
	opt.Profiler = telemetry.NewRecorder()
	dev := simt.NewDevice(2)
	r, err := newDeviceRun(g, opt, dev, runView{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.free()
	st := r.st
	if !st.count {
		t.Fatal("a profiled run must count work and hashtable probes")
	}
	dev.LaunchKernel1D(context.Background(), len(r.low), 32, r.tk) // ≥ 2 blocks: sizes tallies for both SMs
	i := r.low[0]
	lane := func(sm int) {
		tb := st.window(sm, g.Degree(i)).tableFor(g.Degree(i))
		tb.clear(0, 1)
		tb.open.Accumulate(7, 1, st.hashTally(sm))
		st.tallies[sm].flips++
		st.tallies[sm].edges += int64(g.Degree(i))
	}
	before := st.iterHash.Accumulates
	allocs := testing.AllocsPerRun(100, func() {
		lane(0)
		lane(1)
		st.FoldTallies()
	})
	if allocs != 0 {
		t.Errorf("profiled fold allocates %v per launch, want 0", allocs)
	}
	if d := st.iterHash.Accumulates - before; d != 2*101 {
		t.Errorf("folded %d accumulates over 101 runs of 2 lanes, want %d", d, 2*101)
	}
}

// TestProfiledPickAllocatesNothing pins the thread kernel's fused pick with
// counting on — the per-vertex step of every profiled run — to zero
// allocations.
func TestProfiledPickAllocatesNothing(t *testing.T) {
	g := gen.ErdosRenyi(200, 1200, 5)
	opt := DefaultOptions()
	opt.Profiler = telemetry.NewRecorder()
	dev := simt.NewDevice(1)
	r, err := newDeviceRun(g, opt, dev, runView{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.free()
	st := r.st
	dev.LaunchKernel1D(context.Background(), len(r.low), 32, r.tk) // sizes the tallies
	i := r.low[0]
	ts, ws := g.Neighbors(i)
	tl := st.hashTally(0)
	if tl == nil {
		t.Fatal("a profiled run must count hashtable probes")
	}
	before := tl.Accumulates
	allocs := testing.AllocsPerRun(100, func() {
		st.window(0, len(ts)).pick(i, ts, ws, st.labels, tl)
	})
	if allocs != 0 {
		t.Errorf("profiled pick allocates %v per vertex, want 0", allocs)
	}
	if tl.Accumulates == before {
		t.Error("profiled pick counted nothing: the guard is vacuous")
	}
}

// TestBlockKernelEmptyTableKeepsLabel: a vertex whose only arc is a self
// loop accumulates nothing, so its block's max-reduce finds no candidate
// and the vertex keeps its own label. The running best must start empty
// and take only occupied slots — a zeroed best would read as label 0 with
// weight 0.
func TestBlockKernelEmptyTableKeepsLabel(t *testing.T) {
	opts := graph.BuildOptions{Symmetrize: true, SumDuplicates: true}
	g, err := graph.FromEdges([]graph.Edge{{U: 0, V: 1, W: 1}, {U: 2, V: 2, W: 1}}, 3, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, bd := range []int{1, 32, 256} {
		opt := DefaultOptions()
		opt.SwitchDegree, opt.BlockDim, opt.Device = 0, bd, simt.NewDevice(1)
		if res := detect(t, g, opt); res.Labels[2] != 2 {
			t.Errorf("BlockDim %d: self-loop-only vertex 2 moved to label %d", bd, res.Labels[2])
		}
	}
}

// TestBlockKernelTieRule pins the block kernel's max-reduce on a tie: hub 0
// of a six-leaf star sees labels 1..6 once each, and label k's home slot
// in its 7-slot table is k. With one slot per lane (BlockDim 8, 256) or one
// lane (BlockDim 1) the first slot in slot order wins, label 1; at
// BlockDim 2, lane 0 (slots 0, 2, 4, 6) folds before lane 1 (1, 3, 5),
// so lane 0's label 2 wins and lane 1's equally heavy label 1 cannot beat
// it. The accumulate phase's running max is slot order, so it may stand in
// for the fold only in the first case.
func TestBlockKernelTieRule(t *testing.T) {
	g := gen.Star(7)
	for _, tc := range []struct{ bd, want int }{{1, 1}, {2, 2}, {8, 1}, {256, 1}} {
		opt := DefaultOptions()
		opt.SwitchDegree, opt.BlockDim, opt.Device = 0, tc.bd, simt.NewDevice(1)
		opt.PickLessEvery, opt.MaxIterations = 0, 1
		if res := detect(t, g, opt); res.Labels[0] != uint32(tc.want) {
			t.Errorf("BlockDim %d: hub took label %d, want %d", tc.bd, res.Labels[0], tc.want)
		}
	}
}
