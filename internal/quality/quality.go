// Package quality evaluates community assignments: modularity (the paper's
// fitness metric, eq. 1–2), Normalized Mutual Information against ground
// truth, and descriptive community statistics.
package quality

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"nulpa/internal/graph"
)

// Modularity computes Q per equation (1) of the paper:
//
//	Q = Σ_c [ σ_c/2m − (Σ_c/2m)² ]
//
// where σ_c is twice the total intra-community edge weight of community c
// (each intra arc counted once in the stored directed form, which already
// counts each undirected edge twice) and Σ_c is the total weight of arcs
// incident to c. Labels may be arbitrary uint32 ids; they need not be dense.
// Q lies in [-0.5, 1]; returns 0 for an edgeless graph.
func Modularity(g *graph.CSR, labels []uint32) float64 {
	return ModularityResolution(g, labels, 1)
}

// ModularityResolution computes generalized modularity with resolution γ:
// Q(γ) = Σ_c [ σ_c/2m − γ·(Σ_c/2m)² ]. γ = 1 is classic modularity; larger
// γ favours smaller communities. The terms are added in ascending label
// order, so Q is a deterministic function of the labelling.
func ModularityResolution(g *graph.CSR, labels []uint32, gamma float64) float64 {
	ranked, k := byLabel(labels)
	return modularity(g, ranked, k, gamma)
}

// modularity is ModularityResolution over labels in [0, k).
func modularity(g *graph.CSR, labels []uint32, k int, gamma float64) float64 {
	if len(labels) != g.NumVertices() {
		panic(fmt.Sprintf("quality: %d labels for %d vertices", len(labels), g.NumVertices()))
	}
	twoM := g.TotalWeight()
	if twoM == 0 {
		return 0
	}
	intra := make([]float64, k) // σ_c: intra-community arc weight (counts both arc directions)
	total := make([]float64, k) // Σ_c: arc weight incident to c
	for u := range labels {
		cu := labels[u]
		ts, ws := g.Neighbors(graph.Vertex(u))
		for x, v := range ts {
			w := float64(ws[x])
			total[cu] += w
			if labels[v] == cu {
				intra[cu] += w
			}
		}
	}
	var q float64
	for c := range total {
		if total[c] == 0 {
			continue
		}
		frac := total[c] / twoM
		q += intra[c]/twoM - gamma*frac*frac
	}
	return q
}

// byLabel returns labels in a range [0, k) with k ≤ len(labels), so that
// per-community state fits a slice of k entries indexed by label, keeping
// label order. Labels that already fit — vertex ids or compressed labels,
// as every detector here returns — come back as they are, with k = max
// label + 1 (the community count, when compressed); any other universe is
// renumbered by rank.
func byLabel(labels []uint32) ([]uint32, int) {
	if k, ok := labelRange(labels); ok {
		return labels, k
	}
	distinct := slices.Clone(labels)
	slices.Sort(distinct)
	distinct = slices.Compact(distinct)
	ranked := make([]uint32, len(labels))
	for i, c := range labels {
		r, _ := slices.BinarySearch(distinct, c)
		ranked[i] = uint32(r)
	}
	return ranked, len(distinct)
}

// labelRange returns k = max label + 1 (0 for no labels) in one pass and
// reports whether k ≤ len(labels).
func labelRange(labels []uint32) (k int, ok bool) {
	if len(labels) == 0 {
		return 0, true
	}
	var hi uint32
	for _, c := range labels {
		hi = max(hi, c)
	}
	return int(hi) + 1, int64(hi) < int64(len(labels))
}

// Unstable counts the vertices whose label is not among the heaviest labels
// of their neighbours, by summed arc weight: the vertices at which LPA's own
// stopping test fails. A label tied for heaviest counts as stable, and so
// does a vertex with no neighbour other than itself. Self loops are ignored,
// as the ν-LPA kernels ignore them.
func Unstable(g *graph.CSR, labels []uint32) int {
	if len(labels) != g.NumVertices() {
		panic(fmt.Sprintf("quality: %d labels for %d vertices", len(labels), g.NumVertices()))
	}
	ranked, k := byLabel(labels)
	sum := make([]float64, k) // weight of each label around the vertex in hand
	mark := make([]int, k)    // u+1 where sum holds vertex u's weight
	unstable := 0
	for u, own := range ranked {
		stamp := u + 1
		ts, ws := g.Neighbors(graph.Vertex(u))
		for x, v := range ts {
			if c := ranked[v]; int(v) != u {
				if mark[c] != stamp {
					mark[c], sum[c] = stamp, 0
				}
				sum[c] += float64(ws[x])
			}
		}
		heaviest, any := 0.0, false
		for _, v := range ts {
			if c := ranked[v]; int(v) != u && (!any || sum[c] > heaviest) {
				heaviest, any = sum[c], true
			}
		}
		if any && (mark[own] != stamp || sum[own] < heaviest) {
			unstable++
		}
	}
	return unstable
}

// CommunitySizes returns the size of each community keyed by label.
func CommunitySizes(labels []uint32) map[uint32]int {
	sizes := make(map[uint32]int)
	for _, c := range labels {
		sizes[c]++
	}
	return sizes
}

// CountCommunities returns |Γ|, the number of distinct labels.
func CountCommunities(labels []uint32) int {
	return len(CommunitySizes(labels))
}

// Compact renumbers labels to the dense range [0, count) preserving the
// partition, and returns the new labels and the community count. Useful
// before NMI or serialization. It is an alias of CompressLabels, the
// repository's canonical renumbering.
func Compact(labels []uint32) ([]uint32, int) {
	return CompressLabels(labels)
}

// NMI computes the Normalized Mutual Information between two community
// assignments over the same vertex set, normalized by the arithmetic mean of
// the entropies: NMI = 2·I(A;B) / (H(A)+H(B)). It is 1 when the partitions
// are identical (up to relabeling) and approaches 0 for independent
// partitions. When both partitions are trivial (single community or all
// singletons identically), NMI is defined here as 1 if they are equal as
// partitions and 0 otherwise.
func NMI(a, b []uint32) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("quality: NMI of %d vs %d labels", len(a), len(b)))
	}
	n := len(a)
	if n == 0 {
		return 1
	}
	ca, _ := Compact(a)
	cb, _ := Compact(b)
	if slices.Equal(ca, cb) {
		// The same partition: exactly 1, which the map-order sums below
		// can miss by an ulp.
		return 1
	}
	countA := make(map[uint32]int)
	countB := make(map[uint32]int)
	joint := make(map[[2]uint32]int)
	for i := 0; i < n; i++ {
		countA[ca[i]]++
		countB[cb[i]]++
		joint[[2]uint32{ca[i], cb[i]}]++
	}
	fn := float64(n)
	var ha, hb float64
	for _, c := range countA {
		p := float64(c) / fn
		ha -= p * math.Log(p)
	}
	for _, c := range countB {
		p := float64(c) / fn
		hb -= p * math.Log(p)
	}
	var mi float64
	for k, c := range joint {
		pxy := float64(c) / fn
		px := float64(countA[k[0]]) / fn
		py := float64(countB[k[1]]) / fn
		mi += pxy * math.Log(pxy/(px*py))
	}
	// ha+hb > 0: two trivial partitions are identical and returned above.
	nmi := 2 * mi / (ha + hb)
	// Clamp float error at both ends: tiny negatives from near-independent
	// partitions, and last-ulp overshoots above 1 (the map-order entropy
	// sums need not cancel exactly).
	if nmi < 0 && nmi > -1e-12 {
		nmi = 0
	}
	if nmi > 1 {
		nmi = 1
	}
	return nmi
}

// Summary describes a community assignment for reporting.
type Summary struct {
	Communities int
	Largest     int
	Smallest    int
	Mean        float64
	Median      int
	Modularity  float64
}

// Summarize computes a Summary of labels over g.
func Summarize(g *graph.CSR, labels []uint32) Summary {
	ranked, k := byLabel(labels)
	s := Summary{Modularity: modularity(g, ranked, k, 1)}
	// Count in a slice indexed by label, then compact the non-empty sizes
	// to its front in place.
	counts := make([]int, k)
	for _, c := range ranked {
		counts[c]++
	}
	all := counts[:0]
	for _, v := range counts {
		if v > 0 {
			all = append(all, v)
		}
	}
	s.Communities = len(all)
	if len(all) == 0 {
		return s
	}
	sort.Ints(all)
	s.Smallest = all[0]
	s.Largest = all[len(all)-1]
	s.Median = all[len(all)/2]
	var sum int
	for _, v := range all {
		sum += v
	}
	s.Mean = float64(sum) / float64(len(all))
	return s
}

// String renders the summary on one line.
func (s Summary) String() string {
	return fmt.Sprintf("communities=%d sizes[min=%d med=%d max=%d] Q=%.4f",
		s.Communities, s.Smallest, s.Median, s.Largest, s.Modularity)
}
