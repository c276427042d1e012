package gen

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"nulpa/internal/graph"
)

func TestErdosRenyi(t *testing.T) {
	g := ErdosRenyi(200, 800, 1)
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if g.NumVertices() != 200 {
		t.Errorf("n = %d, want 200", g.NumVertices())
	}
	// Dedup and self-loop drops shrink the edge count a little.
	if g.NumEdges() < 700 || g.NumEdges() > 800 {
		t.Errorf("edges = %d, want ~800", g.NumEdges())
	}
}

func TestErdosRenyiDeterministic(t *testing.T) {
	a := ErdosRenyi(100, 300, 42)
	b := ErdosRenyi(100, 300, 42)
	if a.NumArcs() != b.NumArcs() {
		t.Fatal("same seed produced different graphs")
	}
	for i := range a.Targets {
		if a.Targets[i] != b.Targets[i] {
			t.Fatal("same seed produced different adjacency")
		}
	}
	c := ErdosRenyi(100, 300, 43)
	same := a.NumArcs() == c.NumArcs()
	if same {
		for i := range a.Targets {
			if a.Targets[i] != c.Targets[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("different seeds produced identical graphs")
	}
}

func TestRMAT(t *testing.T) {
	g := RMAT(DefaultRMAT(10, 8, 3))
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if g.NumVertices() != 1024 {
		t.Errorf("n = %d, want 1024", g.NumVertices())
	}
	// Power-law check: the max degree should dwarf the average.
	st := graph.ComputeStats(g)
	if float64(st.MaxDegree) < 4*st.AvgDegree {
		t.Errorf("RMAT not skewed: max %d vs avg %.1f", st.MaxDegree, st.AvgDegree)
	}
}

func TestRMATBadProbabilities(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("RMAT accepted probabilities summing over 1")
		}
	}()
	RMAT(RMATConfig{Scale: 4, EdgeFactor: 2, A: 0.6, B: 0.4, C: 0.4, Seed: 1})
}

func TestWeb(t *testing.T) {
	g := Web(DefaultWeb(3000, 12, 5))
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	st := graph.ComputeStats(g)
	if st.AvgDegree < 6 || st.AvgDegree > 60 {
		t.Errorf("web avg degree %.1f outside plausible range", st.AvgDegree)
	}
	// Web crawls are extremely skewed.
	if float64(st.MaxDegree) < 5*st.AvgDegree {
		t.Errorf("web not skewed: max %d vs avg %.1f", st.MaxDegree, st.AvgDegree)
	}
	// Locality: direct links land within one window; copied links drift, but
	// the bulk of all edges should still span only a few windows.
	win := int64(DefaultWeb(3000, 12, 5).Window)
	local := 0
	total := 0
	for u := 0; u < g.NumVertices(); u++ {
		ts, _ := g.Neighbors(graph.Vertex(u))
		for _, v := range ts {
			d := int64(u) - int64(v)
			if d < 0 {
				d = -d
			}
			total++
			if d <= 4*win {
				local++
			}
		}
	}
	if total == 0 || float64(local)/float64(total) < 0.85 {
		t.Errorf("web locality %.2f, want >= 0.85", float64(local)/float64(total))
	}
}

func TestRoad(t *testing.T) {
	g := Road(DefaultRoad(5000, 7))
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	st := graph.ComputeStats(g)
	// Paper's OSM graphs have D_avg ~= 2.1 (arcs per vertex).
	if st.AvgDegree < 1.8 || st.AvgDegree > 2.6 {
		t.Errorf("road avg degree %.2f, want ~2.1", st.AvgDegree)
	}
	if st.MaxDegree > 12 {
		t.Errorf("road max degree %d implausibly high", st.MaxDegree)
	}
}

func TestKMer(t *testing.T) {
	g := KMer(DefaultKMer(8000, 9))
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	st := graph.ComputeStats(g)
	if st.AvgDegree < 1.5 || st.AvgDegree > 2.6 {
		t.Errorf("kmer avg degree %.2f, want ~2.1", st.AvgDegree)
	}
	// Many components, like GenBank k-mer graphs.
	_, count := graph.ConnectedComponents(g)
	if count < g.NumVertices()/200 {
		t.Errorf("kmer components = %d, want many", count)
	}
}

func TestPlanted(t *testing.T) {
	g, truth := Planted(PlantedConfig{N: 600, Communities: 6, DegIn: 16, DegOut: 1, Seed: 11})
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if len(truth) != 600 {
		t.Fatalf("truth length %d", len(truth))
	}
	for _, c := range truth {
		if c >= 6 {
			t.Fatalf("truth label %d out of range", c)
		}
	}
	// Intra-community edges should dominate.
	intra, inter := 0, 0
	for u := 0; u < g.NumVertices(); u++ {
		ts, _ := g.Neighbors(graph.Vertex(u))
		for _, v := range ts {
			if truth[u] == truth[v] {
				intra++
			} else {
				inter++
			}
		}
	}
	if intra < 8*inter {
		t.Errorf("planted graph not well separated: intra=%d inter=%d", intra, inter)
	}
}

func TestRGG(t *testing.T) {
	g := RGG(800, 0.06, 2)
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	// Expected degree ~= n * pi * r^2 ~= 9; allow slack.
	st := graph.ComputeStats(g)
	if st.AvgDegree < 4 || st.AvgDegree > 18 {
		t.Errorf("rgg avg degree %.1f, want ~9", st.AvgDegree)
	}
}

func TestStar(t *testing.T) {
	g := Star(64)
	if g.Degree(0) != 63 {
		t.Errorf("hub degree %d, want 63", g.Degree(0))
	}
	for v := 1; v < 64; v++ {
		if g.Degree(graph.Vertex(v)) != 1 {
			t.Fatalf("leaf %d degree %d", v, g.Degree(graph.Vertex(v)))
		}
	}
}

func TestCycle(t *testing.T) {
	g := Cycle(10)
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	for v := 0; v < 10; v++ {
		if g.Degree(graph.Vertex(v)) != 2 {
			t.Fatalf("cycle vertex %d degree %d", v, g.Degree(graph.Vertex(v)))
		}
	}
	_, count := graph.ConnectedComponents(g)
	if count != 1 {
		t.Errorf("cycle components = %d", count)
	}
}

func TestCompleteBipartite(t *testing.T) {
	g := CompleteBipartite(4, 6)
	if g.NumVertices() != 10 || g.NumEdges() != 24 {
		t.Fatalf("K(4,6): n=%d m=%d", g.NumVertices(), g.NumEdges())
	}
	for i := 0; i < 4; i++ {
		if g.Degree(graph.Vertex(i)) != 6 {
			t.Errorf("left vertex degree %d, want 6", g.Degree(graph.Vertex(i)))
		}
	}
}

func TestMatchedPairs(t *testing.T) {
	g := MatchedPairs(8)
	for v := 0; v < 8; v++ {
		if g.Degree(graph.Vertex(v)) != 1 {
			t.Fatalf("vertex %d degree %d, want 1", v, g.Degree(graph.Vertex(v)))
		}
	}
	_, count := graph.ConnectedComponents(g)
	if count != 4 {
		t.Errorf("components = %d, want 4", count)
	}
}

func TestSocial(t *testing.T) {
	g, truth := Social(DefaultSocial(4000, 20, 13))
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	st := graph.ComputeStats(g)
	if st.AvgDegree < 8 || st.AvgDegree > 60 {
		t.Errorf("social avg degree %.1f implausible", st.AvgDegree)
	}
	if float64(st.MaxDegree) < 4*st.AvgDegree {
		t.Errorf("social not skewed: max %d vs avg %.1f", st.MaxDegree, st.AvgDegree)
	}
	// Planted structure: intra edges must dominate (mu = 0.3).
	intra, inter := 0, 0
	for u := 0; u < g.NumVertices(); u++ {
		ts, _ := g.Neighbors(graph.Vertex(u))
		for _, v := range ts {
			if truth[u] == truth[v] {
				intra++
			} else {
				inter++
			}
		}
	}
	frac := float64(inter) / float64(intra+inter)
	if frac < 0.15 || frac > 0.55 {
		t.Errorf("inter-community fraction %.2f, want near mu=0.3", frac)
	}
	// Community sizes are heterogeneous.
	sizes := map[uint32]int{}
	for _, c := range truth {
		sizes[c]++
	}
	minS, maxS := 1<<30, 0
	for _, s := range sizes {
		if s < minS {
			minS = s
		}
		if s > maxS {
			maxS = s
		}
	}
	if maxS < 3*minS {
		t.Errorf("community sizes too uniform: %d..%d", minS, maxS)
	}
}

// csrDigest is the FNV-64a hash of g's Offsets, Targets and Weights (bit
// patterns), each value little-endian.
func csrDigest(g *graph.CSR) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, o := range g.Offsets {
		binary.LittleEndian.PutUint64(b[:], uint64(o))
		h.Write(b[:])
	}
	for _, t := range g.Targets {
		binary.LittleEndian.PutUint32(b[:4], uint32(t))
		h.Write(b[:4])
	}
	for _, w := range g.Weights {
		binary.LittleEndian.PutUint32(b[:4], math.Float32bits(w))
		h.Write(b[:4])
	}
	return h.Sum64()
}

// TestGeneratorDigestsPinned pins the CSR each generator builds: the digests
// were taken from the per-row comparison-sort builder and per-vertex link
// lists that FromEdges and the edge-list copy step replaced, and held by
// every builder since, so a change to either that moves a single arc or
// weight fails here. "web 200000" and "social 65536" are the web-simt and
// social-sharded benchmark inputs of seed 100, large enough that FromEdges
// builds them on several workers. "web 500000" emits 4.57M edges, more than
// 2²², and its digest was taken from the target-bucket counting sort that
// the source-bucket build replaced.
func TestGeneratorDigestsPinned(t *testing.T) {
	social, _ := Social(DefaultSocial(8192, 16, 101))
	bigSocial, _ := Social(DefaultSocial(65536, 32, 100))
	for _, c := range []struct {
		name string
		g    *graph.CSR
		want uint64
	}{
		{"web 20000", Web(DefaultWeb(20000, 8, 5)), 0x742f0478fa2546bf},
		{"road 50000", Road(DefaultRoad(50000, 101)), 0x378c0333efc06b02},
		{"social 8192", social, 0xf6ab5da111278fab},
		{"kmer 20000", KMer(DefaultKMer(20000, 101)), 0x203c82444f8da932},
		{"web 200000", Web(DefaultWeb(200000, 8, 100)), 0x0e8e3eff9d4bc1b8},
		{"social 65536", bigSocial, 0x0c287cc94604ed8a},
		{"web 500000", Web(DefaultWeb(500000, 8, 100)), 0x6df9faa4811ee423},
	} {
		if got := csrDigest(c.g); got != c.want {
			t.Errorf("%s: CSR digest %#016x, want %#016x", c.name, got, c.want)
		}
	}
}

// TestWebAllocs guards the web generator's allocation count: the copy step
// reads a prototype's links from the edge list, so no allocation is made
// per page.
func TestWebAllocs(t *testing.T) {
	cfg := DefaultWeb(20000, 8, 5)
	if a := testing.AllocsPerRun(3, func() { Web(cfg) }); a > 20 {
		t.Errorf("Web(DefaultWeb(20000, 8, 5)) made %.0f allocations, want <= 20", a)
	}
}

// TestSocialAllocs guards the social generator's allocations at the size
// the sharded benchmark workload generates: communities are vertex ranges,
// not member lists, and the edge list is sized from the configuration, so
// neither grows.
func TestSocialAllocs(t *testing.T) {
	cfg := DefaultSocial(65536, 32, 101)
	if a := testing.AllocsPerRun(2, func() { Social(cfg) }); a > 20 {
		t.Errorf("Social(DefaultSocial(65536, 32, 101)) made %.0f allocations, want <= 20", a)
	}
}

// BenchmarkGenWeb generates the 20k-vertex web graph a served web job
// builds, CSR included.
func BenchmarkGenWeb(b *testing.B) {
	cfg := DefaultWeb(20000, 8, 5)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Web(cfg)
	}
}
