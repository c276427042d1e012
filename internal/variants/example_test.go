package variants_test

import (
	"fmt"
	"log"

	"nulpa/internal/engine"
	"nulpa/internal/gen"
	"nulpa/internal/quality"
	"nulpa/internal/variants"
)

// ExampleSLPAResult_OverlapThreshold runs SLPA on a social network for
// overlapping communities, the capability the multi-label variants add over
// plain LPA, then finds the largest community. SLPA is reached through the
// engine registry like every other method; the overlapping memberships ride
// in the native result, Result.Extra.
func ExampleSLPAResult_OverlapThreshold() {
	g, truth := gen.Social(gen.DefaultSocial(5000, 16, 33))
	fmt.Printf("social network: %d users, %d ties\n\n", g.NumVertices(), g.NumEdges())

	det, err := engine.MustGet("slpa")
	if err != nil {
		log.Fatal(err)
	}
	res, err := det.Detect(g, engine.Options{Seed: 1, Workers: 1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("SLPA: %d disjoint communities (NMI vs planted %.3f)\n",
		res.Communities, quality.NMI(res.Labels, truth))

	// The engine result carries the disjoint projection; the overlapping
	// memory lives in the native SLPA result.
	native := res.Extra.(*variants.SLPAResult)
	fmt.Println("\noverlapping membership by threshold:")
	for _, frac := range []float64{0.05, 0.15, 0.30} {
		over := native.OverlapThreshold(frac)
		multi, total := 0, 0
		for _, ls := range over {
			total += len(ls)
			if len(ls) > 1 {
				multi++
			}
		}
		fmt.Printf("  r=%.2f: %5.1f%% of users in >1 community, %.2f memberships/user\n",
			frac, 100*float64(multi)/float64(len(over)), float64(total)/float64(len(over)))
	}

	// Drill into the largest community (the smallest label on a size tie).
	big, bigN := uint32(0), 0
	for c, n := range quality.CommunitySizes(res.Labels) {
		if n > bigN || n == bigN && c < big {
			big, bigN = c, n
		}
	}
	var members []int
	for v, l := range res.Labels {
		if l == big {
			members = append(members, v)
		}
	}
	fmt.Printf("\nlargest community: %d members\n", bigN)
	_, cut := quality.EdgeCut(g, res.Labels)
	fmt.Printf("global edge cut: %.1f%%; community %d's first members: %v...\n",
		100*cut, big, members[:min(5, len(members))])
	// Output:
	// social network: 5000 users, 38725 ties
	//
	// SLPA: 196 disjoint communities (NMI vs planted 0.995)
	//
	// overlapping membership by threshold:
	//   r=0.05:  36.0% of users in >1 community, 1.49 memberships/user
	//   r=0.15:   7.1% of users in >1 community, 1.08 memberships/user
	//   r=0.30:   1.2% of users in >1 community, 1.01 memberships/user
	//
	// largest community: 245 members
	// global edge cut: 31.3%; community 132's first members: [2951 2952 2953 2954 2955]...
}
