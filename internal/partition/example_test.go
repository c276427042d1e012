package partition_test

import (
	"fmt"
	"log"
	"math/rand"

	"nulpa/internal/gen"
	"nulpa/internal/partition"
	"nulpa/internal/quality"
)

// ExamplePartition is the paper's future-work application: balanced k-way
// graph partitioning with size-constrained label propagation. It splits a
// road network into k balanced regions and sets the edge cut against a
// random assignment at the same k.
func ExamplePartition() {
	g := gen.Road(gen.DefaultRoad(50000, 21))
	fmt.Printf("road network: %d vertices, %d edges\n\n", g.NumVertices(), g.NumEdges())
	fmt.Printf("%5s %12s %12s %10s\n", "k", "cut frac", "random cut", "imbalance")

	for _, k := range []int{2, 4, 8, 16, 32} {
		res, err := partition.Partition(g, partition.DefaultOptions(k))
		if err != nil {
			log.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(k)))
		random := make([]uint32, g.NumVertices())
		for i := range random {
			random[i] = uint32(rng.Intn(k))
		}
		_, randomFrac := quality.EdgeCut(g, random)
		fmt.Printf("%5d %11.1f%% %11.1f%% %9.1f%%\n",
			k, 100*res.CutFraction, 100*randomFrac, 100*res.Imbalance)
	}
	fmt.Println("\neach part is bounded by 1.05 · N/k vertices (ε = 0.05)")
	// Output:
	// road network: 59488 vertices, 62439 edges
	//
	//     k     cut frac   random cut  imbalance
	//     2        17.4%        50.4%       0.2%
	//     4        18.8%        75.1%       0.5%
	//     8        16.6%        87.4%       4.0%
	//    16        14.5%        93.9%       4.5%
	//    32        13.3%        96.9%       5.0%
	//
	// each part is bounded by 1.05 · N/k vertices (ε = 0.05)
}
