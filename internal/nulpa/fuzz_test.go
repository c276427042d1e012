package nulpa

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"nulpa/internal/engine"
	"nulpa/internal/graph"
	"nulpa/internal/hashtable"
)

// specVariants are the option sets FuzzDetectMatchesSpec checks, each a
// change to DefaultOptions: Pick-Less periods ρ of 0, 1 and 4, Cross-Check
// alone and with Pick-Less, pruning off, the coalesced table, float64
// values, τ = 0 and switch degrees of 0, 32 and ∞.
var specVariants = []struct {
	name string
	set  func(*Options)
}{
	{"default", func(*Options) {}},
	{"rho0", func(o *Options) { o.PickLessEvery = 0 }},
	{"rho1", func(o *Options) { o.PickLessEvery = 1 }},
	{"cc", func(o *Options) { o.PickLessEvery, o.CrossCheckEvery = 0, 1 }},
	{"hybrid", func(o *Options) { o.PickLessEvery, o.CrossCheckEvery = 2, 3 }},
	{"no-prune", func(o *Options) { o.DisablePruning = true }},
	{"coalesced", func(o *Options) { o.Coalesced = true }},
	{"float64", func(o *Options) { o.ValueKind = hashtable.Float64 }},
	{"tau0", func(o *Options) { o.Tolerance = 0 }},
	{"switch0", func(o *Options) { o.SwitchDegree = 0 }},
	{"switch-inf", func(o *Options) { o.SwitchDegree = math.MaxInt }},
}

// Variant indices the hand-made seeds use.
const (
	variantDefault = 0
	variantRho0    = 1
	variantSwitch0 = 9
)

// specInput decodes a fuzz input into a graph and its options. The graph
// has 2 + nv mod 63 vertices and one undirected edge per 4 bytes of edges
// (at most 256), parallel edges and self loops kept: endpoints b0 and b1
// mod n, and for w = b2 | b3<<8 the weight (w mod 2¹² + 1)·2^(w>>12), an
// integer from 1 to 2²⁷, so a float32 sum past 2²⁴ absorbs small weights.
// The options are DefaultOptions under specVariants[variant mod 11], with
// BlockDim bd unless bd is 0.
func specInput(nv, variant, bd uint8, edges []byte) (*graph.CSR, Options) {
	n := 2 + int(nv)%63
	es := make([]graph.Edge, 0, min(len(edges)/4, 256))
	for b := edges; len(b) >= 4 && len(es) < cap(es); b = b[4:] {
		w := uint32(b[2]) | uint32(b[3])<<8
		es = append(es, graph.Edge{
			U: graph.Vertex(int(b[0]) % n), V: graph.Vertex(int(b[1]) % n),
			W: float32(w&0xfff+1) * float32(uint32(1)<<(w>>12)),
		})
	}
	g, err := graph.FromEdges(es, n, graph.BuildOptions{Symmetrize: true})
	if err != nil {
		panic(err)
	}
	opt := DefaultOptions()
	specVariants[int(variant)%len(specVariants)].set(&opt)
	if bd != 0 {
		opt.BlockDim = int(bd)
	}
	return g, opt
}

// edgeBytes encodes edges u–v of weight (m+1)·2^e, each given as {u, v, m,
// e}, in specInput's format.
func edgeBytes(edges ...[4]int) []byte {
	var b []byte
	for _, e := range edges {
		w := e[2] | e[3]<<12
		b = append(b, byte(e[0]), byte(e[1]), byte(w), byte(w>>8))
	}
	return b
}

// specSeed is a hand-made input of FuzzDetectMatchesSpec.
type specSeed struct {
	nv, variant, bd uint8
	edges           []byte
}

// specSeeds are inputs that each catch a way the kernels can depart from
// the paper's schedule, under plain go test.
var specSeeds = []specSeed{
	// Lockstep: on one edge without Pick-Less, both ends pick the other's
	// label before either moves, so they swap. A thread kernel that moves
	// each vertex right after its own pick does not.
	{0, variantRho0, 0, edgeBytes([4]int{0, 1, 0, 0})},
	// Pick-Less: in iteration 0 only vertex 1 may move, to the smaller
	// label 0. An inverted test moves vertex 0 to label 1 instead.
	{0, variantDefault, 0, edgeBytes([4]int{0, 1, 0, 0})},
	// Strided order: hub 2 is a block-kernel vertex at BlockDim 2, so lane
	// 0 sums its even arcs and lane 1 its odd ones. Label 0 gets 2²⁴, 1, 1
	// and 1 on lane 0 and four 1s on lane 1: summed lane 0 first, float32
	// absorbs every 1 and label 0 weighs 2²⁴, below label 1's 2²⁴ + 2.
	// Lane 1 first, the 1s add up to 4 before 2²⁴ and label 0 wins.
	{1, variantSwitch0, 2, edgeBytes(
		[4]int{2, 0, 511, 15}, [4]int{2, 0, 0, 0}, [4]int{2, 0, 0, 0}, [4]int{2, 0, 0, 0}, [4]int{2, 0, 0, 0},
		[4]int{2, 0, 0, 0}, [4]int{2, 0, 0, 0}, [4]int{2, 0, 0, 0},
		[4]int{2, 1, 511, 15}, [4]int{2, 1, 1, 0})},
}

// FuzzDetectMatchesSpec holds the kernels to the sequential spec: on one
// SM, nulpa, the direct configuration and nulpa-sharded at one shard must
// each end with the spec's labels after as many iterations, with the same
// moves, reverts and ΔN in every iteration. An input on which the spec
// meets a tie for the heaviest label is skipped. The seeds are specSeeds
// and random graphs under every variant.
func FuzzDetectMatchesSpec(f *testing.F) {
	for _, s := range specSeeds {
		g, opt := specInput(s.nv, s.variant, s.bd, s.edges)
		if specTie(g, opt) {
			f.Fatalf("seed %v: the spec meets a tie, so the seed checks nothing", s)
		}
		f.Add(s.nv, s.variant, s.bd, s.edges)
	}
	rng := rand.New(rand.NewSource(1))
	for v := range specVariants {
		for _, bd := range []uint8{0, 3, 32} {
			edges := make([]byte, 4*(20+rng.Intn(80)))
			rng.Read(edges)
			f.Add(uint8(10+rng.Intn(50)), uint8(v), bd, edges)
		}
	}
	f.Fuzz(func(t *testing.T, nv, variant, bd uint8, edges []byte) {
		g, opt := specInput(nv, variant, bd, edges)
		checkSpec(t, g, opt)
	})
}

// specTie reports whether the spec meets a tie for the heaviest label under
// opt or its direct configuration.
func specTie(g *graph.CSR, opt Options) bool {
	wide := opt.ValueKind == hashtable.Float64
	return spec(g, opt, wide).tie >= 0 || spec(g, asDirect(opt), wide).tie >= 0
}

// checkSpec runs g under opt at one SM as nulpa, in the direct
// configuration and as nulpa-sharded at one shard, one subtest each, and
// compares each run with the spec. It skips when the spec meets a tie.
func checkSpec(t *testing.T, g *graph.CSR, opt Options) {
	t.Helper()
	opt.Workers = 1
	wide := opt.ValueKind == hashtable.Float64
	want, direct := spec(g, opt, wide), spec(g, asDirect(opt), wide)
	if want.tie >= 0 || direct.tie >= 0 {
		t.Skip("the heaviest label of a vertex is not unique; the kernels break such ties by slot order")
	}
	sharded := opt
	sharded.Shards = 1
	for _, c := range []struct {
		name string
		want specRun
		run  func() (*Result, error)
	}{
		{"nulpa", want, func() (*Result, error) { return Detect(g, opt) }},
		{"direct", direct, func() (*Result, error) { return Detect(g, asDirect(opt)) }},
		{"nulpa-sharded", want, func() (*Result, error) {
			res, err := Detector{Sharded: true}.Detect(g, engine.Options{Extra: sharded})
			if err != nil {
				return nil, err
			}
			return res.Extra.(*Result), nil
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			res, err := c.run()
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(res.Labels, c.want.labels) {
				t.Fatalf("labels %v, spec %v", res.Labels, c.want.labels)
			}
			if res.Iterations != len(c.want.iters) || len(res.Trace) != len(c.want.iters) {
				t.Fatalf("%d iterations, spec %d", res.Iterations, len(c.want.iters))
			}
			for i, it := range c.want.iters {
				r := res.Trace[i]
				if r.Moves != it.moves || r.Reverts != it.reverts || r.DeltaN != it.deltaN {
					t.Fatalf("iteration %d: moves/reverts/ΔN %d/%d/%d, spec %d/%d/%d",
						i, r.Moves, r.Reverts, r.DeltaN, it.moves, it.reverts, it.deltaN)
				}
			}
		})
	}
}

// TestDetectMatchesSpecOnHubs checks the kernels against the spec at a
// size the fuzz inputs do not reach: 600 vertices, 12 of them hubs of
// degree up to about 700, with random real weights. The thread kernel then
// runs several blocks with a partial last one, and a hub's strided lanes
// wrap past BlockDim 256.
func TestDetectMatchesSpecOnHubs(t *testing.T) {
	const n, hubs = 600, 12
	rng := rand.New(rand.NewSource(3))
	var es []graph.Edge
	w := func() float32 { return 1 + 7*rng.Float32() }
	for h := range hubs {
		for range 1 + rng.Intn(700) {
			es = append(es, graph.Edge{U: graph.Vertex(h), V: graph.Vertex(rng.Intn(n)), W: w()})
		}
	}
	for v := hubs; v < n; v++ {
		for range 3 {
			es = append(es, graph.Edge{U: graph.Vertex(v), V: graph.Vertex(hubs + rng.Intn(n-hubs)), W: w()})
		}
	}
	g, err := graph.FromEdges(es, n, graph.DefaultBuildOptions())
	if err != nil {
		t.Fatal(err)
	}
	if d := g.MaxDegree(); d <= 256 {
		t.Fatalf("max degree %d: no hub wraps its strided lanes at BlockDim 256", d)
	}
	for _, v := range specVariants {
		for _, bd := range []int{32, 256} {
			opt := DefaultOptions()
			v.set(&opt)
			opt.BlockDim = bd
			t.Run(fmt.Sprintf("%s/bd%d", v.name, bd), func(t *testing.T) {
				if specTie(g, opt) {
					t.Fatal("the spec meets a tie, so the test checks nothing")
				}
				checkSpec(t, g, opt)
			})
		}
	}
}

// TestPickLessStrandsPathEnd pins the labels of the path 0–1 (weight 1),
// 1–2 (weight 3) under DefaultOptions: [0 1 1], from Detect and the spec
// alike. Iteration 0 is pick-less, so vertex 0 may not take the larger
// label 1 and only vertex 2 moves; vertex 0 is then pruned and never woken,
// because vertex 1 never moves, and it stays a singleton beside its only
// neighbour. This is today's schedule, not a property of label
// propagation: a change to Pick-Less or to pruning may strand vertex 0 no
// longer, and should change this pin on purpose.
func TestPickLessStrandsPathEnd(t *testing.T) {
	g, err := graph.FromEdges([]graph.Edge{{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 3}}, 3, graph.DefaultBuildOptions())
	if err != nil {
		t.Fatal(err)
	}
	want := []uint32{0, 1, 1}
	if got := spec(g, DefaultOptions(), false); !slices.Equal(got.labels, want) || got.tie >= 0 {
		t.Errorf("spec: labels %v (tie at %d), want %v", got.labels, got.tie, want)
	}
	if res := detect(t, g, DefaultOptions()); !slices.Equal(res.Labels, want) {
		t.Errorf("Detect: labels %v, want %v", res.Labels, want)
	}
}
