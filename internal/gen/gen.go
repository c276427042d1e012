// Package gen provides seeded synthetic graph generators standing in for the
// paper's SuiteSparse dataset (Table 1). One generator exists per graph
// class in the table — web crawls (LAW), social networks (SNAP), road
// networks (DIMACS10), and protein k-mer graphs (GenBank) — each matching
// that class's degree distribution and community structure at laptop scale.
// All generators are deterministic for a given seed.
package gen

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"nulpa/internal/graph"
)

// ErdosRenyi returns a G(n,m) random simple undirected graph: m undirected
// edges drawn uniformly (duplicates merged, so the result can have slightly
// fewer than m edges).
func ErdosRenyi(n, m int, seed int64) *graph.CSR {
	rng := rand.New(rand.NewSource(seed))
	edges := make([]graph.Edge, 0, m)
	for i := 0; i < m; i++ {
		u := graph.Vertex(rng.Intn(n))
		v := graph.Vertex(rng.Intn(n))
		edges = append(edges, graph.Edge{U: u, V: v, W: 1})
	}
	return mustBuild(edges, n)
}

// RMATConfig parameterizes the recursive matrix (R-MAT) generator used for
// social-network stand-ins (com-LiveJournal, com-Orkut).
type RMATConfig struct {
	Scale      int     // n = 2^Scale vertices
	EdgeFactor int     // m = EdgeFactor * n undirected edges before dedup
	A, B, C    float64 // quadrant probabilities; D = 1-A-B-C
	Seed       int64
}

// DefaultRMAT returns the Graph500-style parameterization (0.57, 0.19, 0.19).
func DefaultRMAT(scale, edgeFactor int, seed int64) RMATConfig {
	return RMATConfig{Scale: scale, EdgeFactor: edgeFactor, A: 0.57, B: 0.19, C: 0.19, Seed: seed}
}

// RMAT generates a power-law graph via recursive quadrant descent.
func RMAT(cfg RMATConfig) *graph.CSR {
	n := 1 << cfg.Scale
	m := cfg.EdgeFactor * n
	rng := rand.New(rand.NewSource(cfg.Seed))
	d := 1 - cfg.A - cfg.B - cfg.C
	if d < 0 {
		panic(fmt.Sprintf("gen: RMAT probabilities sum to %g > 1", cfg.A+cfg.B+cfg.C))
	}
	edges := make([]graph.Edge, 0, m)
	for i := 0; i < m; i++ {
		u, v := 0, 0
		for bit := cfg.Scale - 1; bit >= 0; bit-- {
			// Add ±10% noise per level to avoid perfectly self-similar
			// artifacts, per the Graph500 reference implementation.
			a := cfg.A * (0.9 + 0.2*rng.Float64())
			b := cfg.B * (0.9 + 0.2*rng.Float64())
			c := cfg.C * (0.9 + 0.2*rng.Float64())
			dd := d * (0.9 + 0.2*rng.Float64())
			norm := a + b + c + dd
			r := rng.Float64() * norm
			switch {
			case r < a:
				// top-left: nothing to set
			case r < a+b:
				v |= 1 << bit
			case r < a+b+c:
				u |= 1 << bit
			default:
				u |= 1 << bit
				v |= 1 << bit
			}
		}
		edges = append(edges, graph.Edge{U: graph.Vertex(u), V: graph.Vertex(v), W: 1})
	}
	return mustBuild(edges, n)
}

// WebConfig parameterizes the copy-model web-crawl generator standing in for
// the LAW graphs (indochina-2004 … sk-2005). Web crawls have very skewed
// degree distributions, strong id-locality (pages on one host get nearby
// ids), and dense host-level communities; the copy model reproduces all
// three.
type WebConfig struct {
	N         int     // number of pages
	AvgDegree int     // mean out-links per page
	CopyProb  float64 // probability a link copies a prototype's link (0.7 typical)
	Window    int     // id-locality window for prototypes and random links
	Seed      int64
}

// DefaultWeb returns a web-crawl configuration with paper-like locality.
func DefaultWeb(n, avgDegree int, seed int64) WebConfig {
	w := n / 50
	if w < 16 {
		w = 16
	}
	return WebConfig{N: n, AvgDegree: avgDegree, CopyProb: 0.72, Window: w, Seed: seed}
}

// Web generates a web-crawl-like graph with the copy model.
func Web(cfg WebConfig) *graph.CSR {
	// Checked before the link list and its offsets are allocated: at a size
	// FromEdges would refuse they alone can exhaust memory.
	if cfg.N > graph.MaxVertices {
		panic(fmt.Sprintf("gen: internal error: graph: %d vertices exceeds MaxVertices (%d)", cfg.N, graph.MaxVertices))
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	// Mean out-degree is about 1.14·AvgDegree (2% hubs at 8×), so a
	// quarter of headroom keeps the link list from being regrown.
	links := make([]graph.Vertex, 0, cfg.N*cfg.AvgDegree*5/4)
	// Pages are generated in id order and only append their own out-links,
	// so page p's links are links[first[p]:first[p+1]]: the copy step reads
	// a prototype's links from the link list itself. Every link points to a
	// lower id, a random one inside the window or a prototype's.
	first := make([]int, cfg.N+1)
	for v := 1; v < cfg.N; v++ {
		first[v] = len(links)
		lo := max(v-cfg.Window, 0)
		span := v - lo
		// Out-degree: geometric-ish heavy tail around AvgDegree.
		deg := 1 + rng.Intn(2*cfg.AvgDegree-1)
		if rng.Float64() < 0.02 {
			deg *= 8 // occasional hub page (link farm / index page)
		}
		proto := lo + rng.Intn(span)
		copied := links[first[proto]:first[proto+1]]
		for k := 0; k < deg; k++ {
			if len(copied) > 0 && rng.Float64() < cfg.CopyProb {
				links = append(links, copied[rng.Intn(len(copied))])
			} else {
				links = append(links, graph.Vertex(lo+rng.Intn(span)))
			}
		}
	}
	first[cfg.N] = len(links)
	return webCSR(links, first)
}

// webCSR builds the undirected, deduplicated CSR that FromEdges builds from
// the edges (v, t, 1) for every link t of every page v, where page v's links
// are links[first[v]:first[v+1]] and all lower than v. It sorts each page's
// links in place and reuses first as row cursors.
//
// Row v holds v's distinct links, then the pages above v that link to it,
// each weighted by its multiplicity, so one pass in ascending v writes
// every row in order: v's own links at the row start, and v at the cursor
// of each row it links to, after every lower linking page. The weights are
// counts, which float32 holds exactly, so they equal FromEdges' sums of
// unit weights.
func webCSR(links []graph.Vertex, first []int) *graph.CSR {
	n := len(first) - 1
	offsets := make([]int64, n+1)
	for v := 0; v < n; v++ {
		ts := links[first[v]:first[v+1]]
		sortLinks(ts)
		for i, t := range ts {
			if i == 0 || t != ts[i-1] {
				offsets[v+1]++
				offsets[t+1]++
			}
		}
	}
	for v := 0; v < n; v++ {
		offsets[v+1] += offsets[v]
	}
	targets := make([]graph.Vertex, offsets[n])
	weights := make([]float32, offsets[n])
	for v := 0; v < n; v++ {
		ts := links[first[v]:first[v+1]]
		at := offsets[v]
		for i := 0; i < len(ts); {
			t, j := ts[i], i+1
			for j < len(ts) && ts[j] == t {
				j++
			}
			w := float32(j - i)
			targets[at], weights[at] = t, w
			at++
			// t < v, so first[t] is already row t's cursor.
			targets[first[t]], weights[first[t]] = graph.Vertex(v), w
			first[t]++
			i = j
		}
		first[v] = int(at)
	}
	return graph.New(offsets, targets, weights)
}

// sortLinks sorts one page's links: insertion for the short lists of most
// pages, slices.Sort for hub pages' lists.
func sortLinks(ts []graph.Vertex) {
	if len(ts) > 32 {
		slices.Sort(ts)
		return
	}
	for j := 1; j < len(ts); j++ {
		t, at := ts[j], j
		for ; at > 0 && ts[at-1] > t; at-- {
			ts[at] = ts[at-1]
		}
		ts[at] = t
	}
}

// RoadConfig parameterizes the road-network generator standing in for the
// DIMACS10 OSM graphs (asia_osm, europe_osm). Road networks are almost
// planar, have average arc-degree ≈ 2.1, and consist of long degree-2 chains
// between sparse intersections.
type RoadConfig struct {
	Intersections int // junction vertices before subdivision
	ChainLen      int // mean path vertices inserted per road segment
	Seed          int64
}

// DefaultRoad sizes a road network with roughly n total vertices.
func DefaultRoad(n int, seed int64) RoadConfig {
	chain := 8
	inter := n / (1 + chain*3/2) // each junction owns ~1.5 segments of `chain` vertices
	if inter < 4 {
		inter = 4
	}
	return RoadConfig{Intersections: inter, ChainLen: chain, Seed: seed}
}

// Road generates a road-like network: a random near-planar junction graph
// (grid with random diagonals and deletions) whose segments are subdivided
// into chains of degree-2 vertices.
func Road(cfg RoadConfig) *graph.CSR {
	rng := rand.New(rand.NewSource(cfg.Seed))
	side := int(math.Ceil(math.Sqrt(float64(cfg.Intersections))))
	if side < 2 {
		side = 2
	}
	nj := side * side
	type seg struct{ a, b int }
	var segs []seg
	id := func(r, c int) int { return r*side + c }
	for r := 0; r < side; r++ {
		for c := 0; c < side; c++ {
			// Keep most lattice edges; drop some to create irregularity.
			if c+1 < side && rng.Float64() < 0.85 {
				segs = append(segs, seg{id(r, c), id(r, c+1)})
			}
			if r+1 < side && rng.Float64() < 0.85 {
				segs = append(segs, seg{id(r, c), id(r+1, c)})
			}
			// Occasional diagonal shortcut (highway).
			if r+1 < side && c+1 < side && rng.Float64() < 0.06 {
				segs = append(segs, seg{id(r, c), id(r+1, c+1)})
			}
		}
	}
	// Subdivide: each segment becomes a chain of 1..2*ChainLen-1 new vertices.
	next := nj
	edges := make([]graph.Edge, 0, len(segs)*(cfg.ChainLen+1))
	for _, s := range segs {
		k := 1 + rng.Intn(2*cfg.ChainLen-1)
		prev := s.a
		for i := 0; i < k; i++ {
			edges = append(edges, graph.Edge{U: graph.Vertex(prev), V: graph.Vertex(next), W: 1})
			prev = next
			next++
		}
		edges = append(edges, graph.Edge{U: graph.Vertex(prev), V: graph.Vertex(s.b), W: 1})
	}
	return mustBuild(edges, next)
}

// KMerConfig parameterizes the protein k-mer generator standing in for the
// GenBank graphs (kmer_A2a, kmer_V1r): huge numbers of vertices, average
// arc-degree ≈ 2.1, long chains with occasional branch points, and millions
// of small components.
type KMerConfig struct {
	N          int     // total vertices
	MeanChain  int     // mean chain length per component
	BranchProb float64 // probability a chain vertex sprouts a branch
	Seed       int64
}

// DefaultKMer returns a GenBank-like configuration.
func DefaultKMer(n int, seed int64) KMerConfig {
	return KMerConfig{N: n, MeanChain: 24, BranchProb: 0.05, Seed: seed}
}

// KMer generates a k-mer-like graph: disjoint chains of geometric length with
// sparse branching.
func KMer(cfg KMerConfig) *graph.CSR {
	rng := rand.New(rand.NewSource(cfg.Seed))
	edges := make([]graph.Edge, 0, cfg.N)
	v := 0
	for v < cfg.N {
		// Geometric chain length with the configured mean.
		length := 1
		for length < 4*cfg.MeanChain && rng.Float64() > 1/float64(cfg.MeanChain) {
			length++
		}
		start := v
		v++ // chain head
		for i := 1; i < length && v < cfg.N; i++ {
			edges = append(edges, graph.Edge{U: graph.Vertex(v - 1), V: graph.Vertex(v), W: 1})
			// Occasional branch off the current chain vertex.
			if v+1 < cfg.N && rng.Float64() < cfg.BranchProb {
				blen := 1 + rng.Intn(cfg.MeanChain/2+1)
				prev := v
				for b := 0; b < blen && v+1 < cfg.N; b++ {
					v++
					edges = append(edges, graph.Edge{U: graph.Vertex(prev), V: graph.Vertex(v), W: 1})
					prev = v
				}
			}
			v++
		}
		_ = start
	}
	n := v
	if n > cfg.N {
		n = cfg.N
	}
	// Clamp any overflow edges (possible when a branch hit the cap).
	out := edges[:0]
	for _, e := range edges {
		if int(e.U) < n && int(e.V) < n {
			out = append(out, e)
		}
	}
	return mustBuild(out, n)
}

// PlantedConfig parameterizes the planted-partition (stochastic block model)
// generator used for ground-truth experiments.
type PlantedConfig struct {
	N           int     // vertices
	Communities int     // number of equal-size planted communities
	DegIn       float64 // expected intra-community degree per vertex
	DegOut      float64 // expected inter-community degree per vertex
	Seed        int64
}

// Planted generates a planted-partition graph and returns it with the ground
// truth community of each vertex. DegIn >> DegOut gives well-separated
// communities every correct algorithm should recover.
func Planted(cfg PlantedConfig) (*graph.CSR, []uint32) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	n, k := cfg.N, cfg.Communities
	if k < 1 {
		k = 1
	}
	truth := make([]uint32, n)
	size := (n + k - 1) / k
	for v := 0; v < n; v++ {
		truth[v] = uint32(v / size)
	}
	// Member lists per community for intra-edge sampling.
	members := make([][]graph.Vertex, k)
	for v := 0; v < n; v++ {
		c := truth[v]
		members[c] = append(members[c], graph.Vertex(v))
	}
	mIn := int(cfg.DegIn * float64(n) / 2)
	mOut := int(cfg.DegOut * float64(n) / 2)
	edges := make([]graph.Edge, 0, mIn+mOut)
	for i := 0; i < mIn; i++ {
		c := rng.Intn(k)
		ms := members[c]
		if len(ms) < 2 {
			continue
		}
		u := ms[rng.Intn(len(ms))]
		v := ms[rng.Intn(len(ms))]
		edges = append(edges, graph.Edge{U: u, V: v, W: 1})
	}
	for i := 0; i < mOut; i++ {
		u := graph.Vertex(rng.Intn(n))
		v := graph.Vertex(rng.Intn(n))
		if truth[u] == truth[v] {
			continue
		}
		edges = append(edges, graph.Edge{U: u, V: v, W: 1})
	}
	return mustBuild(edges, n), truth
}

// RGG generates a random geometric graph: n points uniform in the unit
// square, edges between pairs within the given radius. Grid bucketing keeps
// it O(n) for the radii used in practice.
func RGG(n int, radius float64, seed int64) *graph.CSR {
	rng := rand.New(rand.NewSource(seed))
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := 0; i < n; i++ {
		xs[i], ys[i] = rng.Float64(), rng.Float64()
	}
	cell := radius
	if cell <= 0 {
		cell = 1e-9
	}
	cols := int(1/cell) + 1
	buckets := make(map[int][]int)
	key := func(cx, cy int) int { return cy*cols + cx }
	for i := 0; i < n; i++ {
		k := key(int(xs[i]/cell), int(ys[i]/cell))
		buckets[k] = append(buckets[k], i)
	}
	r2 := radius * radius
	var edges []graph.Edge
	for i := 0; i < n; i++ {
		cx, cy := int(xs[i]/cell), int(ys[i]/cell)
		for dy := -1; dy <= 1; dy++ {
			for dx := -1; dx <= 1; dx++ {
				for _, j := range buckets[key(cx+dx, cy+dy)] {
					if j <= i {
						continue
					}
					ddx, ddy := xs[i]-xs[j], ys[i]-ys[j]
					if ddx*ddx+ddy*ddy <= r2 {
						edges = append(edges, graph.Edge{U: graph.Vertex(i), V: graph.Vertex(j), W: 1})
					}
				}
			}
		}
	}
	return mustBuild(edges, n)
}

// Star returns a star graph with one hub and n-1 leaves — the extreme
// high-degree case for block-per-vertex kernels.
func Star(n int) *graph.CSR {
	edges := make([]graph.Edge, 0, n-1)
	for v := 1; v < n; v++ {
		edges = append(edges, graph.Edge{U: 0, V: graph.Vertex(v), W: 1})
	}
	return mustBuild(edges, n)
}

// Cycle returns the n-cycle — a fully symmetric graph on which plain
// lockstep LPA exhibits label swaps.
func Cycle(n int) *graph.CSR {
	edges := make([]graph.Edge, 0, n)
	for v := 0; v < n; v++ {
		edges = append(edges, graph.Edge{U: graph.Vertex(v), V: graph.Vertex((v + 1) % n), W: 1})
	}
	return mustBuild(edges, n)
}

// CompleteBipartite returns K_{a,b} — the canonical community-swap
// pathology: the two sides are perfectly symmetric, so synchronous or
// lockstep LPA oscillates between the sides' labels forever.
func CompleteBipartite(a, b int) *graph.CSR {
	edges := make([]graph.Edge, 0, a*b)
	for i := 0; i < a; i++ {
		for j := 0; j < b; j++ {
			edges = append(edges, graph.Edge{U: graph.Vertex(i), V: graph.Vertex(a + j), W: 1})
		}
	}
	return mustBuild(edges, a+b)
}

// MatchedPairs returns n/2 disjoint edges — every vertex has exactly one
// neighbour, the minimal swap-prone structure.
func MatchedPairs(n int) *graph.CSR {
	edges := make([]graph.Edge, 0, n/2)
	for v := 0; v+1 < n; v += 2 {
		edges = append(edges, graph.Edge{U: graph.Vertex(v), V: graph.Vertex(v + 1), W: 1})
	}
	return mustBuild(edges, n)
}

func mustBuild(edges []graph.Edge, n int) *graph.CSR {
	g, err := graph.FromEdges(edges, n, graph.DefaultBuildOptions())
	if err != nil {
		panic("gen: internal error: " + err.Error())
	}
	return g
}

// SocialConfig parameterizes the LFR-lite social-network generator standing
// in for the SNAP graphs (com-LiveJournal, com-Orkut): heavy-tailed degree
// distribution, power-law community sizes, and a mixing parameter μ giving
// the fraction of each vertex's edges that leave its community. Unlike pure
// R-MAT (which has no planted structure and drives every LPA variant to one
// giant community), this matches the modularity the paper measures on SNAP
// graphs.
type SocialConfig struct {
	N         int
	AvgDegree int
	Mu        float64 // inter-community edge fraction (0.2–0.4 typical)
	MinComm   int     // smallest community size
	MaxComm   int     // largest community size
	Seed      int64
}

// DefaultSocial returns a SNAP-like configuration.
func DefaultSocial(n, avgDegree int, seed int64) SocialConfig {
	maxC := n / 10
	if maxC < 20 {
		maxC = 20
	}
	return SocialConfig{N: n, AvgDegree: avgDegree, Mu: 0.3, MinComm: 10, MaxComm: maxC, Seed: seed}
}

// Social generates an LFR-lite social network and returns it with the
// planted community of each vertex.
func Social(cfg SocialConfig) (*graph.CSR, []uint32) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	n := cfg.N
	truth := make([]uint32, n)
	// Community c is the vertex range [comms[c].start, comms[c].start+size);
	// every community but the last has at least MinComm members.
	type community struct{ start, size int }
	comms := make([]community, 0, n/max(cfg.MinComm, 1)+1)
	// Power-law community sizes: size ~ MinComm / U^0.75, capped.
	v := 0
	for v < n {
		u := rng.Float64()
		size := int(float64(cfg.MinComm) / math.Pow(u+1e-9, 0.75))
		if size > cfg.MaxComm {
			size = cfg.MaxComm
		}
		if size < cfg.MinComm {
			size = cfg.MinComm
		}
		if v+size > n {
			size = n - v
		}
		c := uint32(len(comms))
		comms = append(comms, community{v, size})
		for end := v + size; v < end; v++ {
			truth[v] = c
		}
	}
	// A vertex emits 1+Intn(AvgDegree) edges, six times as many for the 2%
	// that are hubs: 0.55·(AvgDegree+1) on average. 0.6·(AvgDegree+1) per
	// vertex, plus one hub, leaves the list room to spare at any size the
	// benchmarks generate, so it is never regrown.
	edges := make([]graph.Edge, 0, n*(cfg.AvgDegree+1)*3/5+6*cfg.AvgDegree)
	for u := 0; u < n; u++ {
		// Heavy-tailed degree: geometric around half the average (each
		// endpoint initiates half its edges), occasionally boosted.
		deg := 1 + rng.Intn(cfg.AvgDegree)
		if rng.Float64() < 0.02 {
			deg *= 6 // hubs
		}
		cm := comms[truth[u]]
		for k := 0; k < deg; k++ {
			var t graph.Vertex
			if rng.Float64() < cfg.Mu || cm.size < 2 {
				t = graph.Vertex(rng.Intn(n))
			} else {
				t = graph.Vertex(cm.start + rng.Intn(cm.size))
			}
			if t == graph.Vertex(u) {
				continue
			}
			edges = append(edges, graph.Edge{U: graph.Vertex(u), V: t, W: 1})
		}
	}
	return mustBuild(edges, n), truth
}
