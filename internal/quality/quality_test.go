package quality

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"nulpa/internal/gen"
	"nulpa/internal/graph"
)

func mustGraph(t *testing.T, edges []graph.Edge, n int) *graph.CSR {
	t.Helper()
	g, err := graph.FromEdges(edges, n, graph.DefaultBuildOptions())
	if err != nil {
		t.Fatalf("FromEdges: %v", err)
	}
	return g
}

// twoCliques returns two 4-cliques joined by one edge: the canonical
// high-modularity example.
func twoCliques(t *testing.T) *graph.CSR {
	t.Helper()
	var edges []graph.Edge
	for c := 0; c < 2; c++ {
		base := graph.Vertex(4 * c)
		for i := graph.Vertex(0); i < 4; i++ {
			for j := i + 1; j < 4; j++ {
				edges = append(edges, graph.Edge{U: base + i, V: base + j, W: 1})
			}
		}
	}
	edges = append(edges, graph.Edge{U: 0, V: 4, W: 1})
	return mustGraph(t, edges, 8)
}

func TestModularityTwoCliques(t *testing.T) {
	g := twoCliques(t)
	labels := []uint32{0, 0, 0, 0, 1, 1, 1, 1}
	q := Modularity(g, labels)
	// m = 13 edges; intra = 12, cut = 1. Q = 12/13 - 2*(12.5/26)^2... compute
	// directly: per clique σ_c = 12 (arc weight), Σ_c = 2*12+1 = 25... use the
	// known value ~0.4615 - 2*(25/52)^2? Verify against a hand evaluation.
	want := handModularity(g, labels)
	if math.Abs(q-want) > 1e-12 {
		t.Errorf("Q = %v, want %v", q, want)
	}
	if q < 0.3 {
		t.Errorf("Q = %v, expected clearly positive for two cliques", q)
	}
}

// handModularity evaluates Q from the edge-sum definition (eq. 1, first
// form): (1/2m) Σ_{ij} [w_ij − K_i K_j / 2m] δ(C_i, C_j), as an oracle.
func handModularity(g *graph.CSR, labels []uint32) float64 {
	twoM := g.TotalWeight()
	n := g.NumVertices()
	var q float64
	for u := 0; u < n; u++ {
		ts, ws := g.Neighbors(graph.Vertex(u))
		for k, v := range ts {
			if labels[u] == labels[v] {
				q += float64(ws[k])
			}
			_ = k
		}
	}
	q /= twoM
	// Subtract expected fraction: Σ_c (Σ_c/2m)^2 where Σ_c = sum of K_i.
	tot := make(map[uint32]float64)
	for u := 0; u < n; u++ {
		tot[labels[u]] += g.WeightedDegree(graph.Vertex(u))
	}
	for _, s := range tot {
		q -= (s / twoM) * (s / twoM)
	}
	return q
}

func TestModularitySingletons(t *testing.T) {
	g := twoCliques(t)
	labels := make([]uint32, 8)
	for i := range labels {
		labels[i] = uint32(i)
	}
	q := Modularity(g, labels)
	// All-singleton partition has no intra edges: Q = -Σ (K_i/2m)^2 < 0.
	if q >= 0 {
		t.Errorf("singleton Q = %v, want negative", q)
	}
}

func TestModularityOneCommunity(t *testing.T) {
	g := twoCliques(t)
	labels := make([]uint32, 8)
	q := Modularity(g, labels)
	// Single community: σ/2m = 1, (Σ/2m)² = 1 → Q = 0.
	if math.Abs(q) > 1e-12 {
		t.Errorf("whole-graph Q = %v, want 0", q)
	}
}

func TestModularityEmptyGraph(t *testing.T) {
	g := mustGraph(t, nil, 3)
	if q := Modularity(g, []uint32{0, 1, 2}); q != 0 {
		t.Errorf("edgeless Q = %v, want 0", q)
	}
}

func TestModularityMismatchedLabelsPanics(t *testing.T) {
	g := twoCliques(t)
	defer func() {
		if recover() == nil {
			t.Error("Modularity accepted wrong label count")
		}
	}()
	Modularity(g, []uint32{0})
}

func TestModularityBounds(t *testing.T) {
	f := func(seed int64) bool {
		if seed < 0 {
			seed = -seed
		}
		rng := rand.New(rand.NewSource(seed))
		g := gen.ErdosRenyi(30+int(seed%30), 120, seed)
		labels := make([]uint32, g.NumVertices())
		k := 1 + rng.Intn(6)
		for i := range labels {
			labels[i] = uint32(rng.Intn(k))
		}
		q := Modularity(g, labels)
		return q >= -0.5-1e-9 && q <= 1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestModularityMatchesOracle(t *testing.T) {
	f := func(seed int64) bool {
		if seed < 0 {
			seed = -seed
		}
		rng := rand.New(rand.NewSource(seed + 1))
		g := gen.ErdosRenyi(25, 80, seed+1)
		labels := make([]uint32, g.NumVertices())
		for i := range labels {
			labels[i] = uint32(rng.Intn(5))
		}
		return math.Abs(Modularity(g, labels)-handModularity(g, labels)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestNMIIdentical(t *testing.T) {
	a := []uint32{0, 0, 1, 1, 2, 2}
	if nmi := NMI(a, a); math.Abs(nmi-1) > 1e-12 {
		t.Errorf("NMI(a,a) = %v, want 1", nmi)
	}
	// Relabeled but identical partition.
	b := []uint32{7, 7, 3, 3, 9, 9}
	if nmi := NMI(a, b); math.Abs(nmi-1) > 1e-12 {
		t.Errorf("NMI relabeled = %v, want 1", nmi)
	}
}

func TestNMISymmetric(t *testing.T) {
	a := []uint32{0, 0, 1, 1, 2, 2, 0, 1}
	b := []uint32{0, 1, 1, 1, 2, 0, 0, 2}
	if math.Abs(NMI(a, b)-NMI(b, a)) > 1e-12 {
		t.Error("NMI not symmetric")
	}
}

func TestNMIIndependent(t *testing.T) {
	// A perfectly balanced independent pair: a splits by half, b alternates.
	n := 1000
	a := make([]uint32, n)
	b := make([]uint32, n)
	for i := 0; i < n; i++ {
		a[i] = uint32(i / (n / 2))
		b[i] = uint32(i % 2)
	}
	if nmi := NMI(a, b); nmi > 0.01 {
		t.Errorf("NMI independent = %v, want ~0", nmi)
	}
}

func TestNMITrivial(t *testing.T) {
	a := []uint32{5, 5, 5}
	b := []uint32{2, 2, 2}
	if nmi := NMI(a, b); nmi != 1 {
		t.Errorf("NMI of equal trivial partitions = %v, want 1", nmi)
	}
}

func TestNMIEmptyAndMismatch(t *testing.T) {
	if nmi := NMI(nil, nil); nmi != 1 {
		t.Errorf("NMI(nil,nil) = %v, want 1", nmi)
	}
	defer func() {
		if recover() == nil {
			t.Error("NMI accepted mismatched lengths")
		}
	}()
	NMI([]uint32{0}, []uint32{0, 1})
}

func TestNMIRange(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 20 + rng.Intn(50)
		a := make([]uint32, n)
		b := make([]uint32, n)
		for i := range a {
			a[i] = uint32(rng.Intn(5))
			b[i] = uint32(rng.Intn(5))
		}
		nmi := NMI(a, b)
		return nmi >= 0 && nmi <= 1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestCompact(t *testing.T) {
	labels := []uint32{9, 9, 4, 7, 4}
	out, k := Compact(labels)
	if k != 3 {
		t.Fatalf("k = %d, want 3", k)
	}
	if out[0] != out[1] || out[2] != out[4] || out[0] == out[2] || out[3] == out[0] || out[3] == out[2] {
		t.Errorf("Compact broke the partition: %v", out)
	}
	for _, c := range out {
		if int(c) >= k {
			t.Errorf("compact label %d >= %d", c, k)
		}
	}
}

func TestCommunitySizesAndCount(t *testing.T) {
	labels := []uint32{1, 1, 2, 3, 3, 3}
	sizes := CommunitySizes(labels)
	if sizes[1] != 2 || sizes[2] != 1 || sizes[3] != 3 {
		t.Errorf("sizes = %v", sizes)
	}
	if CountCommunities(labels) != 3 {
		t.Errorf("count = %d", CountCommunities(labels))
	}
}

func TestSummarize(t *testing.T) {
	g := twoCliques(t)
	labels := []uint32{0, 0, 0, 0, 1, 1, 1, 1}
	s := Summarize(g, labels)
	if s.Communities != 2 || s.Largest != 4 || s.Smallest != 4 || s.Mean != 4 {
		t.Errorf("summary = %+v", s)
	}
	if s.String() == "" {
		t.Error("empty String()")
	}
	empty := Summarize(mustGraph(t, nil, 0), nil)
	if empty.Communities != 0 {
		t.Errorf("empty summary = %+v", empty)
	}
}

func TestModularityDenseAndSparseAgree(t *testing.T) {
	g := gen.ErdosRenyi(80, 300, 14)
	rng := rand.New(rand.NewSource(15))
	dense := make([]uint32, 80)
	sparse := make([]uint32, 80)
	remap := map[uint32]uint32{}
	for i := range dense {
		dense[i] = uint32(rng.Intn(10))
		big, ok := remap[dense[i]]
		if !ok {
			big = dense[i]*1_000_003 + 77
			remap[dense[i]] = big
		}
		sparse[i] = big // same partition, out-of-range label universe
	}
	qd := Modularity(g, dense)
	qs := Modularity(g, sparse)
	if math.Abs(qd-qs) > 1e-9 {
		t.Errorf("dense path %v != sparse path %v", qd, qs)
	}
}

func TestModularityResolution(t *testing.T) {
	g := twoCliques(t)
	labels := []uint32{0, 0, 0, 0, 1, 1, 1, 1}
	q1 := ModularityResolution(g, labels, 1)
	if math.Abs(q1-Modularity(g, labels)) > 1e-12 {
		t.Error("gamma=1 differs from Modularity")
	}
	// Higher resolution penalizes the null model more: Q decreases.
	q2 := ModularityResolution(g, labels, 2)
	if q2 >= q1 {
		t.Errorf("Q(2)=%v not below Q(1)=%v", q2, q1)
	}
	q0 := ModularityResolution(g, labels, 0)
	// Gamma 0: pure coverage.
	if math.Abs(q0-Coverage(g, labels)) > 1e-12 {
		t.Errorf("Q(0)=%v != coverage %v", q0, Coverage(g, labels))
	}
}
