package partition

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"slices"
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

func TestPartitionCanceledMidRun(t *testing.T) {
	// With Tolerance 0 no restart converges, so four restarts of 1000
	// sweeps each are still running on two goroutines when the context is
	// canceled; Partition must return the typed error once they stop.
	g := gen.Road(gen.DefaultRoad(20000, 4))
	ctx, cancel := context.WithCancel(context.Background())
	opt := DefaultOptions(4)
	opt.MaxIterations = 1000
	opt.Tolerance = 0
	opt.Restarts = 4
	opt.Workers = 2
	opt.Context = ctx
	timer := time.AfterFunc(20*time.Millisecond, cancel)
	defer timer.Stop()
	if _, err := Partition(g, opt); !errors.Is(err, engine.ErrCanceled) {
		t.Fatalf("err = %v, want engine.ErrCanceled", err)
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
