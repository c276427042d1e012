// Webgraph: the paper's headline use case — community detection on a web
// crawl. Compares ν-LPA against Louvain on a copy-model web graph through
// the engine registry: LPA-class speed at somewhat lower modularity (the
// paper's trade-off: 37× faster, −9.6% modularity).
//
// Run with: go run ./examples/webgraph
package main

import (
	"fmt"
	"log"
	"sort"

	"nulpa/internal/engine"
	_ "nulpa/internal/engine/all"
	"nulpa/internal/gen"
	"nulpa/internal/graph"
	"nulpa/internal/quality"
)

func main() {
	g := gen.Web(gen.DefaultWeb(30000, 8, 7))
	fmt.Printf("web crawl stand-in: %d pages, %d links\n", g.NumVertices(), g.NumEdges())

	// ν-LPA in the direct configuration (the CPU-timing reference).
	nu := detect(g, "nulpa-direct")
	qNu := quality.Modularity(g, nu.Labels)
	fmt.Printf("nu-LPA:  %8v  Q=%.4f  communities=%d\n",
		nu.Duration.Round(1000), qNu, nu.Communities)

	lv := detect(g, "louvain")
	qLv := quality.Modularity(g, lv.Labels)
	fmt.Printf("louvain: %8v  Q=%.4f  communities=%d\n",
		lv.Duration.Round(1000), qLv, lv.Communities)

	fmt.Printf("\nspeedup %.1f×, modularity gap %+.1f%%\n",
		float64(lv.Duration)/float64(nu.Duration), 100*(qNu-qLv)/qLv)

	// The largest communities are the "hosts" of the crawl.
	sizes := quality.CommunitySizes(nu.Labels)
	type kv struct {
		c uint32
		n int
	}
	var all []kv
	for c, n := range sizes {
		all = append(all, kv{c, n})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].n > all[j].n })
	fmt.Println("\nlargest communities (host clusters):")
	for i := 0; i < 5 && i < len(all); i++ {
		fmt.Printf("  community %-8d %6d pages\n", all[i].c, all[i].n)
	}
}

func detect(g *graph.CSR, name string) *engine.Result {
	det, err := engine.MustGet(name)
	if err != nil {
		log.Fatal(err)
	}
	res, err := det.Detect(g, engine.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	return res
}
