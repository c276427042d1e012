// Command graphgen generates synthetic graphs from the paper's dataset
// classes and writes them to disk (format by extension: .mtx Matrix Market,
// .bin binary, otherwise edge list).
//
// Example:
//
//	graphgen -type road -n 1000000 -seed 7 -o asia_osm_like.bin
package main

import (
	"flag"
	"fmt"
	"os"

	"nulpa/internal/graph"
	"nulpa/internal/httpapi"
)

func main() {
	var (
		typ  = flag.String("type", "web", "graph class: "+httpapi.Generators)
		n    = flag.Int("n", 100000, "vertex count (rmat: rounded up to a power of two)")
		deg  = flag.Int("deg", 8, "average degree parameter")
		seed = flag.Int64("seed", 1, "generator seed")
		out  = flag.String("o", "", "output file (required)")
	)
	flag.Parse()
	if *out == "" {
		fmt.Fprintln(os.Stderr, "graphgen: -o is required")
		os.Exit(2)
	}

	// The same generator table as nulpa -gen and the job plane's graph.gen.
	g, err := httpapi.GraphSpec{Gen: *typ, N: *n, Deg: *deg, Seed: *seed}.Build()
	if err != nil {
		fmt.Fprintf(os.Stderr, "graphgen: %v\n", err)
		os.Exit(2)
	}

	switch {
	case hasSuffix(*out, ".mtx"):
		f, ferr := os.Create(*out)
		if ferr != nil {
			err = ferr
			break
		}
		err = graph.WriteMatrixMarket(f, g)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	case hasSuffix(*out, ".bin"), hasSuffix(*out, ".nlpg"):
		err = graph.WriteBinaryFile(*out, g)
	case hasSuffix(*out, ".graph"), hasSuffix(*out, ".metis"):
		f, ferr := os.Create(*out)
		if ferr != nil {
			err = ferr
			break
		}
		err = graph.WriteMETIS(f, g)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	default:
		err = graph.WriteEdgeListFile(*out, g)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "graphgen: %v\n", err)
		os.Exit(1)
	}
	st := graph.ComputeStats(g)
	fmt.Printf("wrote %s: %s\n", *out, st)
}

func hasSuffix(s, suf string) bool {
	return len(s) >= len(suf) && s[len(s)-len(suf):] == suf
}
