package nulpa_test

import (
	"fmt"
	"log"

	"nulpa/internal/gen"
	"nulpa/internal/nulpa"
	"nulpa/internal/quality"
	"nulpa/internal/simt"
)

// ExampleDetect detects communities in a small graph with ν-LPA's default
// (paper) configuration and scores them against the planted truth.
//
// On one simulated SM the kernels sweep the vertices in id order, and the
// planted communities are contiguous id ranges, so labels cascade along
// the sweep: three planted communities merge into one of 754 vertices and
// one splits, for NMI 0.867. The SM count changes the answer, not just the
// time (ROADMAP item 1); at 4 SMs the same graph scores NMI 0.996.
func ExampleDetect() {
	// A graph with 8 planted communities of 250 vertices; DegIn >> DegOut.
	g, truth := gen.Planted(gen.PlantedConfig{
		N: 2000, Communities: 8, DegIn: 12, DegOut: 1, Seed: 42,
	})
	fmt.Printf("graph: %d vertices, %d edges\n", g.NumVertices(), g.NumEdges())

	// ν-LPA with the paper's defaults: Pick-Less every 4 iterations,
	// quadratic-double probing, float32 hashtable values, switch degree 32.
	// One simulated SM makes the run, and so its output, host-independent.
	opt := nulpa.DefaultOptions()
	opt.Device = simt.NewDevice(1)
	res, err := nulpa.Detect(g, opt)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("detected: %s\n", quality.Summarize(g, res.Labels))
	fmt.Printf("iterations: %d (converged: %v)\n", res.Iterations, res.Converged)
	fmt.Printf("agreement with planted truth (NMI): %.3f\n", quality.NMI(res.Labels, truth))
	// Output:
	// graph: 2000 vertices, 12527 edges
	// detected: communities=9 sizes[min=1 med=245 max=754] Q=0.6901
	// iterations: 8 (converged: true)
	// agreement with planted truth (NMI): 0.867
}
