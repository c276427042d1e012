package partition

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"nulpa/internal/engine"
	"nulpa/internal/gen"
	"nulpa/internal/graph"
	"nulpa/internal/quality"
)

func TestPartitionBasics(t *testing.T) {
	g := gen.Road(gen.DefaultRoad(4000, 3))
	res, err := Partition(g, DefaultOptions(8))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Parts) != g.NumVertices() {
		t.Fatalf("parts length %d", len(res.Parts))
	}
	for v, p := range res.Parts {
		if p >= 8 {
			t.Fatalf("vertex %d in part %d", v, p)
		}
	}
}

func TestBalanceConstraintHolds(t *testing.T) {
	g := gen.Web(gen.DefaultWeb(3000, 6, 5))
	opt := DefaultOptions(7)
	opt.Imbalance = 0.03
	res, err := Partition(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	sizes := map[uint32]int{}
	for _, p := range res.Parts {
		sizes[p]++
	}
	ideal := (g.NumVertices() + 6) / 7
	// Capacity is ceil((1+eps)*ideal) with at least one slot of slack.
	limit := int(math.Ceil(float64(ideal) * 1.03))
	if limit <= ideal {
		limit = ideal + 1
	}
	for p, s := range sizes {
		if s > limit {
			t.Errorf("part %d has %d vertices, limit %d", p, s, limit)
		}
	}
	if res.Imbalance > float64(limit)/float64(ideal)-1+1e-9 {
		t.Errorf("reported imbalance %.4f over bound", res.Imbalance)
	}
}

func TestCutBeatsRandom(t *testing.T) {
	g := gen.Road(gen.DefaultRoad(5000, 9))
	res, err := Partition(g, DefaultOptions(4))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	random := make([]uint32, g.NumVertices())
	for i := range random {
		random[i] = uint32(rng.Intn(4))
	}
	_, randomFrac := quality.EdgeCut(g, random)
	if res.CutFraction >= randomFrac/2 {
		t.Errorf("LPA cut %.3f not clearly better than random %.3f", res.CutFraction, randomFrac)
	}
}

func TestSinglePart(t *testing.T) {
	g := gen.Cycle(50)
	res, err := Partition(g, DefaultOptions(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.CutWeight != 0 {
		t.Errorf("k=1 cut = %g", res.CutWeight)
	}
	for _, p := range res.Parts {
		if p != 0 {
			t.Fatal("k=1 produced part != 0")
		}
	}
}

func TestMorePartsThanVertices(t *testing.T) {
	g := gen.Cycle(5)
	res, err := Partition(g, DefaultOptions(100))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range res.Parts {
		if int(p) >= 5 {
			t.Fatalf("part %d out of clamped range", p)
		}
	}
}

func TestEmptyGraph(t *testing.T) {
	g := gen.MatchedPairs(0)
	res, err := Partition(g, DefaultOptions(4))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Parts) != 0 {
		t.Errorf("parts = %v", res.Parts)
	}
}

func TestTrivialPartitions(t *testing.T) {
	// k = 1 needs no sweeps: all vertices in part 0, converged immediately.
	g := gen.Cycle(50)
	res, err := Partition(g, DefaultOptions(1))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || res.Iterations != 0 {
		t.Errorf("k=1: converged=%v iterations=%d, want trivial convergence", res.Converged, res.Iterations)
	}

	// k >= N clamps to N and gives each vertex its own part.
	res, err = Partition(gen.Cycle(5), DefaultOptions(100))
	if err != nil {
		t.Fatal(err)
	}
	seen := map[uint32]bool{}
	for _, p := range res.Parts {
		seen[p] = true
	}
	if len(seen) != 5 || !res.Converged {
		t.Errorf("k>=N: %d distinct parts (want 5), converged=%v", len(seen), res.Converged)
	}

	// Singleton graph: one vertex, one part, regardless of requested k.
	res, err = Partition(gen.MatchedPairs(0), DefaultOptions(3))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Error("empty graph did not report convergence")
	}
	single, err := graph.FromEdges(nil, 1, graph.DefaultBuildOptions())
	if err != nil {
		t.Fatal(err)
	}
	res, err = Partition(single, DefaultOptions(4))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Parts) != 1 || res.Parts[0] != 0 || !res.Converged {
		t.Errorf("singleton: parts=%v converged=%v", res.Parts, res.Converged)
	}
}

func TestPartitionCanceled(t *testing.T) {
	g := gen.Road(gen.DefaultRoad(2000, 4))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opt := DefaultOptions(4)
	opt.Context = ctx
	res, err := Partition(g, opt)
	if !errors.Is(err, engine.ErrCanceled) {
		t.Fatalf("err = %v, want engine.ErrCanceled", err)
	}
	if res != nil {
		t.Error("canceled run returned a result")
	}
}

func TestPartitionDeadline(t *testing.T) {
	g := gen.Road(gen.DefaultRoad(2000, 4))
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	opt := DefaultOptions(4)
	opt.Context = ctx
	if _, err := Partition(g, opt); !errors.Is(err, engine.ErrDeadline) {
		t.Fatalf("err = %v, want engine.ErrDeadline", err)
	}
}

// pollCanceled is a context whose Err turns context.Canceled on its
// (after+1)th poll, so a cancel lands at a fixed point of the run whatever
// the host's speed.
type pollCanceled struct {
	context.Context
	polls atomic.Int64
	after int64
}

func (c *pollCanceled) Err() error {
	if c.polls.Add(1) > c.after {
		return context.Canceled
	}
	return nil
}

func TestPartitionCanceledMidRun(t *testing.T) {
	// With Tolerance 0 no restart converges, so four restarts of 1000
	// sweeps each poll the context 20 times a sweep (every 1024 of 20k
	// vertices) on two goroutines. The cancel lands on the 101st poll —
	// mid-sweep, a few sweeps in — and Partition must return the typed
	// error once the restarts stop.
	g := gen.Road(gen.DefaultRoad(20000, 4))
	ctx := &pollCanceled{Context: context.Background(), after: 100}
	opt := DefaultOptions(4)
	opt.MaxIterations = 1000
	opt.Tolerance = 0
	opt.Restarts = 4
	opt.Workers = 2
	opt.Context = ctx
	if _, err := Partition(g, opt); !errors.Is(err, engine.ErrCanceled) {
		t.Fatalf("err = %v, want engine.ErrCanceled", err)
	}
	// Each restart stops at its first poll past the cancel, which reads Err
	// twice (the check and the typed error), so no run polls more than
	// twice per restart after it.
	if polls := ctx.polls.Load(); polls > ctx.after+2*int64(opt.Restarts) {
		t.Errorf("%d polls for a cancel at poll %d: a restart kept sweeping", polls, ctx.after+1)
	}
}

func TestInvalidOptions(t *testing.T) {
	g := gen.Cycle(10)
	if _, err := Partition(g, Options{Parts: 0}); err == nil {
		t.Error("accepted k=0")
	}
	if _, err := Partition(g, Options{Parts: 2, Imbalance: -1}); err == nil {
		t.Error("accepted negative imbalance")
	}
}

func TestDeterministicForSeed(t *testing.T) {
	g := gen.Road(gen.DefaultRoad(1500, 4))
	opt := DefaultOptions(4)
	opt.Workers = 1
	a, err := Partition(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Partition(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Parts {
		if a.Parts[i] != b.Parts[i] {
			t.Fatal("same seed, single worker: different partitions")
		}
	}
}

func TestPartitionWorkersAgree(t *testing.T) {
	// Restarts run in parallel but each sweeps on one goroutine, so the
	// selected partition must not depend on the worker count.
	g, _ := gen.Social(gen.DefaultSocial(65536, 32, 101))
	opt := DefaultOptions(2)
	opt.Imbalance = 0.1
	opt.Restarts = 4
	var ref *Result
	for _, w := range []int{0, 1, 2, 4} {
		opt.Workers = w
		res, err := Partition(g, opt)
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = res
			continue
		}
		if !slices.Equal(res.Parts, ref.Parts) || res.CutWeight != ref.CutWeight || res.Iterations != ref.Iterations {
			t.Fatalf("Workers %d: cut %g after %d sweeps, Workers 0: cut %g after %d sweeps (parts equal: %v)",
				w, res.CutWeight, res.Iterations, ref.CutWeight, ref.Iterations, slices.Equal(res.Parts, ref.Parts))
		}
	}
}

func TestRefinementImprovesOverInitial(t *testing.T) {
	g := gen.Road(gen.DefaultRoad(4000, 7))
	// Zero iterations = the random initial assignment.
	// Both runs use one worker; sweeps are sequential, so the result would
	// be the same at any Workers.
	optInit := DefaultOptions(8)
	optInit.Workers = 1
	optInit.MaxIterations = 1
	optInit.Tolerance = 1 // stop immediately after the first sweep? No: Tolerance only checked post-sweep.
	initRes, err := Partition(g, optInit)
	if err != nil {
		t.Fatal(err)
	}
	optFull := DefaultOptions(8)
	optFull.Workers = 1
	full, err := Partition(g, optFull)
	if err != nil {
		t.Fatal(err)
	}
	if full.CutFraction > initRes.CutFraction {
		t.Errorf("more refinement worsened cut: %.3f vs %.3f", full.CutFraction, initRes.CutFraction)
	}
}

func TestWeightedCutRespected(t *testing.T) {
	// A barbell with a heavy internal clique on each side and a light
	// bridge: the partitioner must cut the bridge, not the cliques.
	var edges []graph.Edge
	for side := 0; side < 2; side++ {
		base := graph.Vertex(10 * side)
		for i := graph.Vertex(0); i < 10; i++ {
			for j := i + 1; j < 10; j++ {
				edges = append(edges, graph.Edge{U: base + i, V: base + j, W: 10})
			}
		}
	}
	edges = append(edges, graph.Edge{U: 0, V: 10, W: 1})
	g, err := graph.FromEdges(edges, 20, graph.DefaultBuildOptions())
	if err != nil {
		t.Fatal(err)
	}
	res, err := Partition(g, DefaultOptions(2))
	if err != nil {
		t.Fatal(err)
	}
	// Only the bridge should be cut: weight 2 of 902 total arcs weight.
	if res.CutWeight > 2+1e-9 {
		t.Errorf("cut weight %g, want 2 (the bridge only)", res.CutWeight)
	}
	if res.Parts[0] == res.Parts[10] {
		t.Error("the two cliques share a part")
	}
}

// referenceRefine is refine without the active set: every sweep evaluates
// every vertex. It is the oracle the active-set refinement must reproduce.
func referenceRefine(g *graph.CSR, opt Options, seed int64, k, ideal, capacity int) *Result {
	n := g.NumVertices()
	rng := rand.New(rand.NewSource(seed))
	order := rng.Perm(n)
	parts := make([]uint32, n)
	sizes := make([]int, k)
	for idx, v := range order {
		p := uint32(min(idx/ideal, k-1))
		parts[v] = p
		sizes[p]++
	}
	res := &Result{}
	conn := make([]float64, k)
	touched := make([]uint32, 0, 16)
	for iter := 0; iter < opt.MaxIterations; iter++ {
		moves := 0
		for v := 0; v < n; v++ {
			if moveVertex(g, graph.Vertex(v), parts, sizes, conn, &touched, capacity) == moved {
				moves++
			}
		}
		res.Iterations = iter + 1
		if float64(moves) < opt.Tolerance*float64(n) {
			res.Converged = true
			break
		}
	}
	res.Parts = parts
	res.CutWeight, res.CutFraction = quality.EdgeCut(g, parts)
	return res
}

// reweighted copies g's arcs with pseudo-random integer weights in [1, 8]
// (equal on both directions of an edge), adding a self-loop of the same
// range on every seventh vertex.
func reweighted(t *testing.T, g *graph.CSR, loops bool) *graph.CSR {
	t.Helper()
	var edges []graph.Edge
	for u := 0; u < g.NumVertices(); u++ {
		ts, _ := g.Neighbors(graph.Vertex(u))
		for _, v := range ts {
			if graph.Vertex(u) < v {
				w := float32(1 + (uint64(u)*2654435761+uint64(v)*40503)%8)
				edges = append(edges, graph.Edge{U: graph.Vertex(u), V: v, W: w})
			}
		}
		if loops && u%7 == 0 {
			edges = append(edges, graph.Edge{U: graph.Vertex(u), V: graph.Vertex(u), W: float32(1 + u%5)})
		}
	}
	out, err := graph.FromEdges(edges, g.NumVertices(), graph.BuildOptions{Symmetrize: true, SumDuplicates: true})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestRefineMatchesFullSweep(t *testing.T) {
	// The active set must make exactly the full sweep's moves: same parts,
	// sweep count, convergence and cut for every graph, k, balance slack
	// (Imbalance 0 leaves one slot of slack, so capacity refusals happen)
	// and tolerance (0 never converges and runs every sweep).
	social, _ := gen.Social(gen.DefaultSocial(3000, 12, 5))
	graphs := []struct {
		name string
		g    *graph.CSR
	}{
		{"road", gen.Road(gen.DefaultRoad(3000, 4))},
		{"web", gen.Web(gen.DefaultWeb(2500, 6, 3))},
		{"social", social},
		{"weighted", reweighted(t, gen.Web(gen.DefaultWeb(2000, 8, 9)), false)},
		{"self-loop", reweighted(t, gen.Road(gen.DefaultRoad(2000, 6)), true)},
	}
	for _, tc := range graphs {
		n := tc.g.NumVertices()
		for _, k := range []int{2, 3, 5} {
			for _, imbalance := range []float64{0, 0.1} {
				for _, tol := range []float64{0, 0.001} {
					opt := DefaultOptions(k)
					opt.Imbalance = imbalance
					opt.Tolerance = tol
					opt.Context = context.Background()
					ideal, capacity := partSizes(n, k, imbalance)
					for seed := int64(1); seed <= 2; seed++ {
						where := fmt.Sprintf("%s k=%d ε=%g tol=%g seed %d", tc.name, k, imbalance, tol, seed)
						got, err := refine(tc.g, opt, seed, k, ideal, capacity)
						if err != nil {
							t.Fatal(err)
						}
						want := referenceRefine(tc.g, opt, seed, k, ideal, capacity)
						if !slices.Equal(got.Parts, want.Parts) || got.Iterations != want.Iterations ||
							got.Converged != want.Converged || got.CutWeight != want.CutWeight {
							t.Fatalf("%s: %d sweeps (converged %v, cut %g), full sweep %d (converged %v, cut %g), parts equal %v",
								where, got.Iterations, got.Converged, got.CutWeight,
								want.Iterations, want.Converged, want.CutWeight, slices.Equal(got.Parts, want.Parts))
						}
					}
				}
			}
		}
	}
}

// BenchmarkPartition partitions the benchmark's 65k social graph with the
// options the sharded backend uses: k=2, ε=0.1, 4 restarts.
func BenchmarkPartition(b *testing.B) {
	g, _ := gen.Social(gen.DefaultSocial(65536, 32, 101))
	opt := DefaultOptions(2)
	opt.Imbalance = 0.1
	opt.Restarts = 4
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Partition(g, opt); err != nil {
			b.Fatal(err)
		}
	}
}
