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
// γ favours smaller communities.
func ModularityResolution(g *graph.CSR, labels []uint32, gamma float64) float64 {
	if len(labels) != g.NumVertices() {
		panic(fmt.Sprintf("quality: %d labels for %d vertices", len(labels), g.NumVertices()))
	}
	twoM := g.TotalWeight()
	if twoM == 0 {
		return 0
	}
	n := g.NumVertices()
	// Labels produced by the algorithms in this repository are vertex ids,
	// so a dense slice accumulator applies; fall back to maps for arbitrary
	// label universes.
	dense := true
	for _, c := range labels {
		if int64(c) >= int64(n) {
			dense = false
			break
		}
	}
	var q float64
	if dense {
		intra := make([]float64, n)
		total := make([]float64, n)
		for u := 0; u < n; u++ {
			cu := labels[u]
			ts, ws := g.Neighbors(graph.Vertex(u))
			for k, v := range ts {
				w := float64(ws[k])
				total[cu] += w
				if labels[v] == cu {
					intra[cu] += w
				}
			}
		}
		for c := 0; c < n; c++ {
			if total[c] == 0 {
				continue
			}
			frac := total[c] / twoM
			q += intra[c]/twoM - gamma*frac*frac
		}
		return q
	}
	intra := make(map[uint32]float64) // σ_c: intra-community arc weight (counts both arc directions)
	total := make(map[uint32]float64) // Σ_c: arc weight incident to c
	for u := 0; u < n; u++ {
		cu := labels[u]
		ts, ws := g.Neighbors(graph.Vertex(u))
		for k, v := range ts {
			w := float64(ws[k])
			total[cu] += w
			if labels[v] == cu {
				intra[cu] += w
			}
		}
	}
	for c, sigma := range intra {
		q += sigma / twoM
		_ = c
	}
	for _, tot := range total {
		frac := tot / twoM
		q -= gamma * frac * frac
	}
	return q
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
	sizes := CommunitySizes(labels)
	s := Summary{Communities: len(sizes), Modularity: Modularity(g, labels)}
	if len(sizes) == 0 {
		return s
	}
	all := make([]int, 0, len(sizes))
	for _, v := range sizes {
		all = append(all, v)
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
